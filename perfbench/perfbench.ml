(* The benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Generates W's inputs from the seed, then repeats the workload (a
   fresh boot each time) until S host seconds have passed and at least
   three repeats are in.  Every simulated number must be identical
   across repeats.  With --trace 0 the last line of output is a JSON
   object with the end-to-end metrics; with --trace 1 the repeats
   alternate untraced and traced, and the JSON carries the per-layer
   metrics.  Host metrics are medians over repeats, except the rate (see
   [host_ops_per_s] below); the lines above the JSON give their
   quartiles and sample counts.  Exits 1 when an output disagrees with
   its reference or a simulated number moved. *)

(* Everything a workload can be asked for, by name and unit. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "ops/s");
    ("alloc_words_per_op", "words");
    ("peak_heap_mb", "MB");
    ("sim_cycles_per_op", "cycles");
    ("sim_latency_mean_us", "us");
  ]

let per_layer =
  [
    ("core.boot_s", "s");
    ("ksyscall.syscalls_per_op", "count");
    ("ksyscall.crossings_per_op", "count");
    ("ksyscall.copied_bytes_per_op", "bytes");
    ("ksyscall.call_host_ns_p50", "ns");
    ("ksyscall.call_host_ns_p99", "ns");
    ("ksyscall.call_alloc_words", "words");
    ("ksyscall.call_sim_cycles_p50", "cycles");
    ("ksyscall.call_sim_cycles_p99", "cycles");
    ("kvfs.dcache_hit_ratio", "ratio");
    ("kvfs.blockdev_reads_per_op", "count");
    ("kvfs.blockdev_writes_per_op", "count");
    ("kvfs.blockdev_hit_ratio", "ratio");
    ("kvfs.blockdev_evictions", "count");
    ("kvfs.io_wait_share", "ratio");
    ("minic.steps_per_op", "count");
    ("minic.host_ns_per_step", "ns");
    ("kcrash.wal_records_per_op", "count");
    ("kcrash.replayed_records", "count");
    ("kcrash.reboot_s", "s");
    ("kcrash.fsck_errors", "count");
    ("knet.backlog_drops", "count");
    ("knet.epoll_waits_per_op", "count");
    ("knet.bytes_out_per_op", "bytes");
    ("knet.server_idle_share", "ratio");
    ("knet.sendq_full", "count");
    ("kring.enters_per_op", "count");
    ("kring.batch_size_mean", "count");
    ("kring.crossings_saved_per_op", "count");
    ("kverify.watchdog_elided_per_op", "count");
    ("kverify.violations", "count");
    ("kopt.cache_hit_ratio", "ratio");
    ("kopt.compiles", "count");
    ("kopt.ring_cq_bytes_saved_per_op", "bytes");
    ("kopt.ring_fused_pairs", "count");
    ("cosy.ops_per_submit", "count");
    ("cosy.shared_bytes_per_op", "bytes");
    ("cosy.submit_host_us_p50", "us");
    ("cosy.submit_host_us_p99", "us");
    ("cosy.submit_alloc_words", "words");
    ("ksim.user_share", "ratio");
    ("ksim.kernel_share", "ratio");
    ("ksim.context_switches_per_op", "count");
    ("workloads.net_step_host_us_p50", "us");
    ("workloads.net_step_host_us_p99", "us");
    ("host.major_collections", "count");
    ("trace.host_overhead_pct", "%");
    ("probe.req_codec_ns", "ns");
    ("probe.req_codec_words", "words");
    ("probe.compound_decode_ns", "ns");
    ("probe.compound_decode_words", "words");
    ("probe.checker_verify_ns", "ns");
    ("probe.checker_verify_words", "words");
    ("probe.plan_compile_ns", "ns");
    ("probe.plan_compile_words", "words");
    ("sim_latency_p50_us", "us");
    ("sim_latency_p99_us", "us");
    ("sim_latency_samples", "count");
    ("sim_recovery_ms", "ms");
    ("ops_failed_ratio", "ratio");
  ]

(* ---- workload sizes ---------------------------------------------------- *)

type input =
  | Web of Gen.web
  | Fs of { journal : bool; g : Gen.fs }
  | Cosy_db of Gen.cosy

let generate workload seed =
  match workload with
  | "web" ->
      Web (Gen.web ~seed ~conns:2000 ~requests_per_conn:8 ~pipeline:4 ~documents:64)
  | "postmark" ->
      Fs
        { journal = false;
          g =
            Gen.fs ~seed ~dir:"/postmark" ~files:1000 ~transactions:4000
              ~min_size:512 ~max_size:10_240 }
  | "journal" ->
      Fs
        { journal = true;
          g =
            Gen.fs ~seed ~dir:"/postmark" ~files:100 ~transactions:400
              ~min_size:512 ~max_size:10_240 }
  | "cosy_db" ->
      Cosy_db
        (Gen.cosy ~seed ~nrec:8192 ~rec_size:256 ~submissions:3000
           ~hot_share_pct:50)
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

let run_once = function
  | Web g -> Wl.run_web g
  | Fs { journal; g } -> Wl.run_fs ~journal g
  | Cosy_db g -> Wl.run_cosy g

let probes = function
  | Web g -> Probe.web g
  | Cosy_db g -> Probe.cosy g
  | Fs _ -> []

(* ---- spans of the traced repeats ---------------------------------------- *)

type span_stats = {
  mutable sys : Span.samples;
  mutable submit : Span.samples;
  mutable step : Span.samples;
  self : (string, int * int * int) Hashtbl.t;  (** name -> count, total, self ns *)
}

let collect (tr : span_stats) =
  let pre p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  tr.sys <- Span.concat_samples tr.sys (Span.samples_of (pre "ksyscall."));
  tr.submit <- Span.concat_samples tr.submit (Span.samples_of (String.equal "cosy.submit"));
  tr.step <- Span.concat_samples tr.step (Span.samples_of (String.equal "workloads.net_step"));
  let self = Span.self_ns () in
  for i = 0 to Span.count () - 1 do
    let name = Span.name (Span.name_of i) in
    let c, tot, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tr.self name) in
    Hashtbl.replace tr.self name (c + 1, tot + Span.host_ns i, s + self.(i))
  done

(* ---- output --------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " web | postmark | journal | cosy_db");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " host seconds to keep repeating for");
      ("--trace", Arg.Set_int trace, " 1: alternate traced repeats, report per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let traced_run = !trace = 1 in
  let input = generate !workload !seed in
  (* the heap that holds the inputs, which peak_heap_mb leaves out *)
  Gc.compact ();
  let input_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Span.calibrate ();
  let start = Span.now_ns () in
  let elapsed () = float_of_int (Span.now_ns () - start) /. 1e9 in
  let warmup = ref None and untraced = ref [] and traced = ref [] in
  let heap_words = ref 0 in
  let tr =
    { sys = Span.empty_samples; submit = Span.empty_samples; step = Span.empty_samples;
      self = Hashtbl.create 16 }
  in
  (* stay well inside the 180 s a run may take *)
  let deadline = 150. in
  (* repeat 0 warms the host up (heap growth, first-touch page faults):
     its outputs are checked but its host times are not reported, and
     the peak heap is read right after it, so it does not depend on how
     many repeats fit in the run; the inputs' heap is taken off *)
  let rec loop i =
    let traced_repeat = traced_run && i mod 2 = 0 && i > 0 in
    Span.enabled := traced_repeat;
    if traced_repeat then Span.reset ();
    let t0 = elapsed () in
    let r = run_once input in
    Span.enabled := false;
    if i = 0 then begin
      warmup := Some r;
      heap_words := (Gc.quick_stat ()).Gc.top_heap_words - input_words
    end
    else if traced_repeat then begin
      collect tr;
      traced := r :: !traced
    end
    else untraced := r :: !untraced;
    let took = elapsed () -. t0 in
    let enough =
      elapsed () >= float_of_int !seconds
      && List.length !untraced >= 3
      && ((not traced_run) || List.length !traced >= 2)
    in
    if not (enough || elapsed () +. took > deadline) then loop (i + 1)
  in
  loop 0;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all = Option.to_list !warmup @ untraced @ traced in
  let first = match untraced with r :: _ -> r | [] -> Option.get !warmup in
  let fingerprints = List.sort_uniq compare (List.map (fun (r : Common.repeat) -> r.fingerprint) all) in
  let deterministic = List.length fingerprints = 1 in
  let attempted = List.fold_left (fun n (r : Common.repeat) -> n + r.ops) 0 all in
  let failed = List.fold_left (fun n (r : Common.repeat) -> n + r.failed) 0 all in
  let host f = Stat.summarize (List.map f untraced) in
  let ops = float_of_int first.ops in
  let setup = host (fun r -> r.setup_s) in
  let rate = host (fun r -> float_of_int r.ops /. r.phase_s) in
  let words = host (fun r -> r.phase_words /. float_of_int r.ops) in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  let heap_mb = mb !heap_words in
  let lat_us p = Common.cycles_to_us (float_of_int (Stat.percentile_int first.lat p)) in
  (* The host's CPU speed alternates between two levels up to 2x apart,
     switching within a second, and the share of time at the fast level
     varies from run to run, which moves a median rate by 30-40%.  The
     slow level recurs in every run, so the rate reported is the 10th
     percentile of the repeats: nine repeats in ten were at least this
     fast. *)
  let e2e =
    [
      ("setup_s", setup.median);
      ("host_ops_per_s", rate.p10);
      ("alloc_words_per_op", words.median);
      ("peak_heap_mb", heap_mb);
      ("sim_cycles_per_op", float_of_int first.sim_cycles /. ops);
      ("sim_latency_mean_us", Common.cycles_to_us first.lat_mean_cycles);
    ]
  in
  let has_lat = Array.length first.lat > 0 in
  let extra =
    [
      ("sim_latency_p50_us", if has_lat then lat_us 50. else 0.);
      ("sim_latency_p99_us", if has_lat then lat_us 99. else 0.);
      ("sim_latency_samples", float_of_int (Array.length first.lat));
      ("sim_recovery_ms", Common.cycles_to_us (float_of_int first.recovery_cycles) /. 1e3);
      ("ops_failed_ratio", Common.ratio failed attempted);
    ]
  in
  (* ---- human-readable report *)
  Printf.printf "perfbench %s seed=%d: 1 warm-up + %d untraced + %d traced repeats in %.1f s\n"
    !workload !seed (List.length untraced) (List.length traced) (elapsed ());
  let pr_host name unit (s : Stat.summary) =
    Printf.printf "  %-28s %14.6g %-6s median  [p10 %.6g, q1 %.6g, q3 %.6g] n=%d\n" name
      s.median unit s.p10 s.q1 s.q3 s.n
  in
  pr_host "setup_s" "s" setup;
  pr_host "host_ops_per_s" "ops/s" rate;
  Printf.printf "  %-28s %14.6g %-6s p10 (reported)\n" "host_ops_per_s" rate.p10 "ops/s";
  pr_host "alloc_words_per_op" "words" words;
  Printf.printf "  %-28s %14.6g %-6s top_heap_words after the first repeat, less %.6g MB of inputs\n"
    "peak_heap_mb" heap_mb "MB" (mb input_words);
  List.iter
    (fun (n, v) -> Printf.printf "  %-28s %14.6g %-6s simulated\n" n v (List.assoc n end_to_end))
    (List.filter (fun (n, _) -> String.length n > 4 && String.sub n 0 4 = "sim_") e2e);
  List.iter
    (fun (n, v) -> Printf.printf "  %-28s %14.6g %-6s\n" n v (List.assoc n per_layer))
    extra;
  if not has_lat then
    print_endline "  (web: per-response latency percentiles omitted; kstats keeps only log2 buckets)";
  List.iter (fun n -> Printf.printf "  failure: %s\n" n) first.notes;
  List.iter (fun n -> Printf.printf "  BROKEN: %s\n" n) first.broken;
  if not deterministic then
    Printf.printf "  BROKEN: simulated numbers differ across repeats (%d fingerprints)\n"
      (List.length fingerprints);
  let correct = deterministic && failed = 0 && first.broken = [] in
  let metrics =
    if not traced_run then List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end
    else begin
      let med f = Stat.median (List.map f untraced) in
      let tmed f = Stat.median (List.map f traced) in
      let ns_p a p = float_of_int (Stat.percentile_int a p) in
      let mean a = Stat.mean_int a in
      let steps = List.assoc "minic.steps_per_op" first.sim *. ops in
      let host_layer =
        [
          ("core.boot_s", med (fun r -> r.boot_s));
          ("ksyscall.call_host_ns_p50", ns_p tr.sys.host 50.);
          ("ksyscall.call_host_ns_p99", ns_p tr.sys.host 99.);
          ("ksyscall.call_alloc_words", mean tr.sys.words);
          ("ksyscall.call_sim_cycles_p50", ns_p tr.sys.sim 50.);
          ("ksyscall.call_sim_cycles_p99", ns_p tr.sys.sim 99.);
          ( "minic.host_ns_per_step",
            if steps > 0. then med (fun r -> r.phase_s) *. 1e9 /. steps else 0. );
          ("kcrash.reboot_s", med (fun r -> r.reboot_s));
          ("cosy.submit_host_us_p50", ns_p tr.submit.host 50. /. 1e3);
          ("cosy.submit_host_us_p99", ns_p tr.submit.host 99. /. 1e3);
          ("cosy.submit_alloc_words", mean tr.submit.words);
          ("workloads.net_step_host_us_p50", ns_p tr.step.host 50. /. 1e3);
          ("workloads.net_step_host_us_p99", ns_p tr.step.host 99. /. 1e3);
          ("host.major_collections", med (fun r -> float_of_int r.major_gcs));
          ( "trace.host_overhead_pct",
            100. *. ((tmed (fun r -> r.phase_s) /. med (fun r -> r.phase_s)) -. 1.) );
        ]
      in
      let all_values = first.sim @ host_layer @ probes input @ extra in
      Printf.printf "  traced spans (%d traced repeats): name, calls, total ms, self ms\n"
        (List.length traced);
      List.iter
        (fun (name, (c, tot, self)) ->
          Printf.printf "    %-36s %8d %10.2f %10.2f\n" name c (float_of_int tot /. 1e6)
            (float_of_int self /. 1e6))
        (List.sort compare (List.of_seq (Hashtbl.to_seq tr.self)));
      (try
         let dir = Filename.concat "perfbench" "out" in
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
         Span.write_json path;
         Printf.printf "  spans of the last traced repeat: %s\n" path
       with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
      List.iter
        (fun (n, _) -> Printf.printf "  %-36s %14.6g\n" n (Option.value ~default:0. (List.assoc_opt n all_values)))
        per_layer;
      List.map
        (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n all_values)))
        per_layer
    end
  in
  print_json ~correct ~attempted ~failed metrics;
  if not correct then exit 1
