(* The named workloads the CLI tools run with [-w NAME] (kstats_tool,
   kperf_tool, kverify_tool, ktrace_tool), the [--fs] stack names, and
   a whole-file reader for their input files. *)

let names = [ "interactive"; "postmark"; "amutils"; "lsdir"; "webserver" ]

let fs_of_string = function
  | "memfs" -> Core.Memfs
  | "wrapfs" -> Core.Wrapfs_kmalloc
  | "journalfs" -> Core.Journalfs
  | other -> Fmt.failwith "unknown fs %s (expected memfs, wrapfs, journalfs)" other

(* Run workload [name] on [sys]; returns the simulated cycles it
   reported taking. *)
let run name sys =
  match name with
  | "interactive" ->
      Workloads.Interactive.setup sys;
      let s =
        Workloads.Interactive.run
          ~config:
            { Workloads.Interactive.default_config with duration_events = 500 }
          sys
      in
      s.Workloads.Interactive.duration_cycles
  | "postmark" ->
      let cfg =
        { Workloads.Postmark.default_config with files = 100; transactions = 400 }
      in
      (Workloads.Postmark.run ~config:cfg sys).Workloads.Postmark.times
        .Ksim.Kernel.elapsed
  | "amutils" ->
      let cfg = { Workloads.Amutils.default_config with source_files = 60 } in
      Workloads.Amutils.setup ~config:cfg sys;
      (Workloads.Amutils.run ~config:cfg sys).Workloads.Amutils.times
        .Ksim.Kernel.elapsed
  | "lsdir" ->
      Workloads.Lsdir.setup sys ~dir:"/d" ~n:200;
      (Workloads.Lsdir.run_plain sys ~dir:"/d").Workloads.Lsdir.times
        .Ksim.Kernel.elapsed
  | "webserver" ->
      Workloads.Webserver.setup sys;
      (Workloads.Webserver.run_plain sys).Workloads.Webserver.times
        .Ksim.Kernel.elapsed
  | other ->
      Fmt.failwith "unknown workload %s (expected one of %s)" other
        (String.concat ", " names)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s
