(* Flamegraph a traced run end to end: boot with the kperf tracer
   enabled, push a metadata-heavy workload through the syscall layer,
   then print the three views the tracer exports —

     - folded stacks (pipe to flamegraph.pl or paste into speedscope)
     - the top-N self-profile ("where did the cycles go")
     - a Chrome trace_event file for Perfetto / chrome://tracing

   Every span carries the simulated-cycle timestamps, so the flamegraph
   is exact, not sampled: syscall spans from the dispatcher, I/O spans
   from the block device, lock-contention spans from the spinlocks, all
   parented causally across the user/kernel boundary.

   Run with:  dune exec examples/kperf_flame.exe *)

let () =
  let t = Core.boot_with { Core.Config.default with trace = true } in
  let sys = Core.sys t in

  (* a small postmark mix: creates, reads, appends, unlinks *)
  let cfg =
    { Workloads.Postmark.default_config with files = 40; transactions = 150 }
  in
  ignore (Workloads.Postmark.run ~config:cfg sys);

  (* ... and one batched submission, so the trace shows syscall spans
     nested under a ring:enter span (one crossing, many calls) *)
  let ring = Core.ring t in
  ignore
    (Core.Ring.run_batch ring
       [
         Core.Req.Mkdir { path = "/batch" };
         Core.Req.Open_write_close
           {
             path = "/batch/doc";
             data = Bytes.of_string "traced";
             flags = Core.o_create;
           };
         Core.Req.Stat { path = "/batch/doc" };
       ]);

  let perf = Core.perf t in
  Fmt.pr "=== kperf: traced postmark + one kring batch ===@.";
  Fmt.pr "events emitted: %d  (ring drops: %d, overwritten: %d)@.@."
    (Core.Perf.emitted perf) (Core.Perf.drops perf)
    (Core.Perf.overwritten perf);

  Fmt.pr "--- top spans by self cycles ---@.";
  Fmt.pr "%a@." Core.Perf.pp_top (Core.Perf.top ~n:8 perf);

  Fmt.pr "--- folded stacks (first 12 lines; feed to flamegraph.pl) ---@.";
  let folded = Core.Perf.folded perf in
  String.split_on_char '\n' folded
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter (fun l -> if l <> "" then Fmt.pr "  %s@." l);
  Fmt.pr "  ...@.@.";

  let out = "kperf_flame.trace.json" in
  let oc = open_out out in
  output_string oc (Core.Perf.chrome_json perf);
  close_out oc;
  Fmt.pr "wrote %s — open in https://ui.perfetto.dev@." out
