(* ktrace_tool: run a named workload under the syscall tracer, then print
   the weighted syscall graph, the hottest n-gram patterns, and the
   consolidation savings estimate (§2.2).

   Usage: dune exec bin/ktrace_tool.exe -- --workload interactive --top 10 *)

open Cmdliner

let main workload top =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let recorder = Core.trace t in
  let duration = Named_workload.run workload sys in
  Printf.printf "traced %d syscalls over %.3f simulated seconds\n"
    (Ktrace.Recorder.count recorder)
    (Ksim.Sim_clock.cycles_to_seconds duration);

  Printf.printf "\n-- weighted syscall graph (top %d edges) --\n" top;
  let g = Ktrace.Syscall_graph.of_recorder recorder in
  List.iteri
    (fun i (s, d, w) ->
      if i < top then
        Printf.printf "  %-12s -> %-12s %8d\n"
          (Ksyscall.Sysno.to_string s) (Ksyscall.Sysno.to_string d) w)
    (Ktrace.Syscall_graph.edges g);

  Printf.printf "\n-- hottest call sequences --\n";
  let mined = Ktrace.Patterns.mine recorder in
  List.iter
    (fun (p, n) ->
      Printf.printf "  %-40s x%d\n" (Fmt.str "%a" Ktrace.Patterns.pp_ngram p) n)
    (Ktrace.Patterns.top mined ~n:top);

  Printf.printf "\n-- consolidation estimate --\n  %s\n"
    (Fmt.str "%a"
       Ktrace.Savings.pp_estimate
       (Ktrace.Savings.estimate ~trace_duration_cycles:duration recorder))

let workload_arg =
  let doc = "Workload to trace: " ^ String.concat ", " Named_workload.names in
  Arg.(value & opt string "interactive" & info [ "w"; "workload" ] ~doc)

let top_arg =
  Arg.(value & opt int 10 & info [ "t"; "top" ] ~doc:"How many entries to print")

let cmd =
  Cmd.v
    (Cmd.info "ktrace_tool" ~doc:"Mine syscall traces for consolidation candidates")
    Term.(const main $ workload_arg $ top_arg)

let () = exit (Cmd.eval cmd)
