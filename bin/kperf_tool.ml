(* kperf_tool: record a trace of a named workload and export it.

   Usage:
     dune exec bin/kperf_tool.exe -- record -w postmark -o trace.json
     dune exec bin/kperf_tool.exe -- record -w webserver --format folded
     dune exec bin/kperf_tool.exe -- fold trace.json
     dune exec bin/kperf_tool.exe -- top trace.json -n 10

   [record] boots a system with the kperf tracer enabled, runs the
   workload, and writes the trace: Chrome trace_event JSON (loadable in
   Perfetto / chrome://tracing), folded stacks (flamegraph.pl /
   speedscope), or the top-N self-cycles table.  [fold] and [top]
   re-derive those views from a previously recorded JSON file. *)

open Cmdliner

let write_out out data =
  match out with
  | None -> print_string data
  | Some path ->
      let oc = open_out path in
      output_string oc data;
      close_out oc;
      Fmt.epr "wrote %s (%d bytes)@." path (String.length data)

(* --- record ----------------------------------------------------------- *)

let record workload fs ncpus format out n =
  let t =
    Core.boot_with
      {
        Core.Config.default with
        ncpus = Some ncpus;
        trace = true;
        fs = Named_workload.fs_of_string fs;
      }
  in
  ignore (Named_workload.run workload (Core.sys t));
  let perf = Core.perf t in
  (match format with
  | "chrome" -> write_out out (Core.Perf.chrome_json perf)
  | "folded" -> write_out out (Core.Perf.folded perf)
  | "top" ->
      write_out out
        (Fmt.str "%a" Core.Perf.pp_top (Core.Perf.top ~n perf))
  | other ->
      Fmt.failwith "unknown format %s (expected chrome, folded, top)" other);
  if Core.Perf.drops perf + Core.Perf.overwritten perf > 0 then
    Fmt.epr "note: ring pressure — %d dropped, %d overwritten@."
      (Core.Perf.drops perf)
      (Core.Perf.overwritten perf)

(* --- fold / top from a recorded file ---------------------------------- *)

let events_of_file path =
  try Core.Perf.events_of_chrome (Named_workload.read_file path)
  with Core.Perf.Json.Parse_error msg ->
    Fmt.failwith "%s: not a kperf chrome trace: %s" path msg

let fold_cmd_run path out = write_out out (Core.Perf.fold_events (events_of_file path))

let top_cmd_run path n =
  Fmt.pr "%a@." Core.Perf.pp_top (Core.Perf.top_of_events ~n (events_of_file path))

(* --- cmdliner wiring --------------------------------------------------- *)

let workload_arg =
  let doc = "Workload to trace: " ^ String.concat ", " Named_workload.names in
  Arg.(value & opt string "postmark" & info [ "w"; "workload" ] ~doc)

let fs_arg =
  Arg.(
    value & opt string "memfs"
    & info [ "f"; "fs" ] ~doc:"Filesystem stack: memfs, wrapfs, journalfs")

let ncpus_arg =
  Arg.(value & opt int 1 & info [ "ncpus" ] ~doc:"Simulated CPUs")

let format_arg =
  Arg.(
    value & opt string "chrome"
    & info [ "format" ] ~doc:"Export format: chrome, folded, top")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~doc:"Output file (default: stdout)")

let n_arg =
  Arg.(value & opt int 10 & info [ "n" ] ~doc:"Rows in the top table")

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json")

let record_cmd =
  Cmd.v
    (Cmd.info "record" ~doc:"Trace a workload and export the result")
    Term.(
      const record $ workload_arg $ fs_arg $ ncpus_arg $ format_arg $ out_arg
      $ n_arg)

let fold_cmd =
  Cmd.v
    (Cmd.info "fold" ~doc:"Folded flamegraph stacks from a recorded trace")
    Term.(const fold_cmd_run $ file_arg $ out_arg)

let top_cmd =
  Cmd.v
    (Cmd.info "top" ~doc:"Top spans by self cycles from a recorded trace")
    Term.(const top_cmd_run $ file_arg $ n_arg)

let cmd =
  Cmd.group
    (Cmd.info "kperf_tool"
       ~doc:"Record and export kperf traces of simulated-kernel workloads")
    [ record_cmd; fold_cmd; top_cmd ]

let () = exit (Cmd.eval cmd)
