(* kprof_tool: where the simulator's host time goes.  A statistical
   profiler of this process: it runs a named workload under a SIGPROF
   sampler and prints the frames that most samples fall in.

   Usage: dune exec bin/kprof_tool.exe -- -w postmark --fs journalfs
          dune exec bin/kprof_tool.exe -- -w postmark --fs journalfs -r 20 -n 30

   [Unix.setitimer ITIMER_PROF] delivers SIGPROF after every millisecond
   of process CPU time; the handler records the OCaml call stack
   ([Printexc.get_callstack]).  A frame's *inclusive* share is the share
   of samples it appears in at all (counted once per sample, however
   deep the recursion); its *self* share is the share in which it is
   the innermost frame.  OCaml runs a signal handler only at its next
   poll point (an allocation, a loop back-edge, some function entries),
   so a sample taken while the program is in C — a [Bytes.blit], a
   polymorphic [Hashtbl.hash], the GC — or in a short OCaml function
   that never polls lands on a nearby OCaml frame: the caller, or the
   first frame to poll after the call returns.  Read self shares as
   "in or just under this frame".  Simulated numbers are unaffected:
   the sampler only reads the host stack. *)

open Cmdliner

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some name -> name
  | None -> (
      match Printexc.Slot.location slot with
      | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
      | None -> "<unknown>")

(* This tool's own frames ([main] and the sampler) are named so. *)
let own = "Dune__exe__Kprof_tool."

(* Stacks deeper than this are cut at their innermost [max_depth]
   frames; mini-C recursion rarely gets near it. *)
let max_depth = 256

let top_of tbl n =
  Hashtbl.fold (fun name k acc -> (k, name) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> if a <> b then compare b a else compare x y)
  |> List.filteri (fun i _ -> i < n)

let main workload fs repeat n =
  let fs = Named_workload.fs_of_string fs in
  let samples = ref 0 in
  let incl = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let bump tbl name =
    Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  let record _ =
    match Printexc.backtrace_slots (Printexc.get_callstack max_depth) with
    | None -> ()
    | Some slots ->
        (* slot 0 is this handler; the frames from this tool's own [main]
           outwards (the repeat loop, cmdliner) are in every sample *)
        let frames = Array.map frame_name (Array.sub slots 1 (Array.length slots - 1)) in
        let rec workload_depth k =
          if k < Array.length frames && not (String.starts_with ~prefix:own frames.(k))
          then workload_depth (k + 1)
          else k
        in
        let frames = Array.sub frames 0 (workload_depth 0) in
        if Array.length frames > 0 then begin
          incr samples;
          bump self frames.(0);
          let seen = Hashtbl.create 32 in
          Array.iter
            (fun name ->
              if not (Hashtbl.mem seen name) then begin
                Hashtbl.replace seen name ();
                bump incl name
              end)
            frames
        end
  in
  let interval = 0.001 in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval });
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeat do
    let t = Core.boot_with { Core.Config.default with fs } in
    ignore (Named_workload.run workload (Core.sys t))
  done;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let total = max 1 !samples in
  let print title tbl =
    Fmt.pr "%s:@." title;
    List.iter
      (fun (k, name) ->
        Fmt.pr "  %5.1f%%  %6d  %s@." (100. *. float_of_int k /. float_of_int total) k name)
      (top_of tbl n)
  in
  Fmt.pr "samples: %d (every 1 ms of CPU time; %d run(s) in %.2f s wall)@."
    !samples repeat wall;
  print "top inclusive" incl;
  print "top self" self

let workload_arg =
  let doc = "Workload to run: " ^ String.concat ", " Named_workload.names in
  Arg.(value & opt string "postmark" & info [ "w"; "workload" ] ~doc)

let fs_arg =
  Arg.(
    value & opt string "memfs"
    & info [ "f"; "fs" ] ~doc:"Filesystem stack: memfs, wrapfs, journalfs")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "r"; "repeat" ] ~doc:"Boot and run the workload this many times")

let top_arg = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Rows per table")

let cmd =
  Cmd.v
    (Cmd.info "kprof_tool" ~doc:"Sample the host call stack while a workload runs")
    Term.(const main $ workload_arg $ fs_arg $ repeat_arg $ top_arg)

let () = exit (Cmd.eval cmd)
