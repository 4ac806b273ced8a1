(* Tests for the kernel-wide metrics registry: log₂ bucket geometry,
   percentiles, merging, registration semantics, what a disabled
   registry still records,
   and — the property everything else leans on — cycle neutrality:
   enabling kstats must not change a single simulated cycle. *)

(* --- bucket geometry ----------------------------------------------------- *)

let test_bucket_boundaries () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket of %d" v) b
        (Kstats.bucket_of_value v))
    [
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (1025, 10); (65535, 15); (65536, 16);
    ];
  Alcotest.(check (pair int int)) "bucket 0 holds 0..1" (0, 1)
    (Kstats.bucket_bounds 0);
  Alcotest.(check (pair int int)) "bucket 1 holds 2..3" (2, 3)
    (Kstats.bucket_bounds 1);
  Alcotest.(check (pair int int)) "bucket 10 holds 1024..2047" (1024, 2047)
    (Kstats.bucket_bounds 10);
  (* every value lands inside its own bucket's bounds *)
  List.iter
    (fun v ->
      let lo, hi = Kstats.bucket_bounds (Kstats.bucket_of_value v) in
      Alcotest.(check bool) (Printf.sprintf "%d within [%d,%d]" v lo hi) true
        (lo <= v && v <= hi))
    [ 0; 1; 2; 3; 5; 100; 1000; 123_456; 1_000_000_000 ]

let test_percentiles () =
  let t = Kstats.create ~enabled:true () in
  let h = Kstats.histogram t "h" in
  Alcotest.(check int) "empty p50" 0 (Kstats.percentile h 50.);
  Kstats.observe t h 100;
  (* a single sample: every percentile clamps to it exactly *)
  Alcotest.(check int) "single p50" 100 (Kstats.percentile h 50.);
  Alcotest.(check int) "single p99" 100 (Kstats.percentile h 99.);
  for v = 1 to 1000 do
    Kstats.observe t h v
  done;
  let p50 = Kstats.percentile h 50. and p99 = Kstats.percentile h 99. in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  (* bucket upper bounds: the true p50 of 1..1000 is ~500, whose bucket
     tops out at 511; p99 lands in 512..1023 *)
  Alcotest.(check bool) "p50 plausible" true (p50 >= 255 && p50 <= 1023);
  Alcotest.(check bool) "p99 plausible" true (p99 >= 511 && p99 <= 1000);
  Alcotest.(check int) "count" 1001 (Kstats.hist_count h);
  (* the view agrees, and its nonzero buckets account for every sample *)
  match Kstats.find t "h" with
  | Some (Kstats.Hist_v v) ->
      Alcotest.(check int) "view p50" p50 v.Kstats.v_p50;
      Alcotest.(check int) "view buckets cover count" 1001
        (List.fold_left (fun acc (_, _, n) -> acc + n) 0 v.Kstats.v_buckets)
  | _ -> Alcotest.fail "histogram view missing"

let test_merge () =
  let a = Kstats.create ~enabled:true () in
  let b = Kstats.create ~enabled:true () in
  let ca = Kstats.counter a "c" and cb = Kstats.counter b "c" in
  let ga = Kstats.gauge a "g" and gb = Kstats.gauge b "g" in
  let ha = Kstats.histogram a "h" and hb = Kstats.histogram b "h" in
  Kstats.add ca 10;
  Kstats.add cb 32;
  Kstats.set ga 5;
  Kstats.set ga 2;   (* peak 5, level 2 *)
  Kstats.set gb 3;
  Kstats.observe a ha 10;
  Kstats.observe b hb 1000;
  let m = Kstats.merge_hist ha hb in
  Alcotest.(check int) "merged count" 2 (Kstats.hist_count m);
  Alcotest.(check int) "merged sum" 1010 (Kstats.hist_sum m);
  Alcotest.(check int) "inputs unchanged" 1 (Kstats.hist_count ha);
  let agg = Kstats.create ~enabled:true () in
  Kstats.merge_into ~into:agg a;
  Kstats.merge_into ~into:agg b;
  (match Kstats.find agg "c" with
  | Some (Kstats.Counter_v v) -> Alcotest.(check int) "counters add" 42 v
  | _ -> Alcotest.fail "counter missing");
  (match Kstats.find agg "g" with
  | Some (Kstats.Gauge_v { max; _ }) ->
      Alcotest.(check int) "gauge keeps peak" 5 max
  | _ -> Alcotest.fail "gauge missing");
  match Kstats.find agg "h" with
  | Some (Kstats.Hist_v v) ->
      Alcotest.(check int) "hists merge" 2 v.Kstats.v_count;
      Alcotest.(check int) "merged min" 10 v.Kstats.v_min;
      Alcotest.(check int) "merged max" 1000 v.Kstats.v_max
  | _ -> Alcotest.fail "hist missing"

(* --- registration semantics ---------------------------------------------- *)

let test_registration () =
  let t = Kstats.create ~enabled:true () in
  let c1 = Kstats.counter t "x" in
  let c2 = Kstats.counter t "x" in
  Kstats.incr c1;
  Kstats.incr c2;
  Alcotest.(check int) "same handle" 2 (Kstats.counter_value c1);
  Alcotest.check_raises "type clash" (Kstats.Type_clash "x") (fun () ->
      ignore (Kstats.gauge t "x"));
  Alcotest.(check (list string)) "registration order" [ "x" ] (Kstats.names t)

(* Counters and gauges always count; [enabled] gates histograms only. *)
let test_disabled_noop () =
  let t = Kstats.create () in
  Alcotest.(check bool) "disabled by default" false (Kstats.is_enabled t);
  let c = Kstats.counter t "c" in
  let g = Kstats.gauge t "g" in
  let h = Kstats.histogram t "h" in
  Kstats.incr c;
  Kstats.add c 2;
  Kstats.set g 7;
  Kstats.gauge_add g (-3);
  Kstats.observe t h 99;
  Alcotest.(check int) "counter records while disabled" 3
    (Kstats.counter_value c);
  Alcotest.(check (pair int int)) "gauge records while disabled" (4, 7)
    (Kstats.gauge_value g, Kstats.gauge_max g);
  Alcotest.(check int) "hist untouched" 0 (Kstats.hist_count h);
  Kstats.set_enabled t true;
  Kstats.incr c;
  Kstats.observe t h 99;
  Alcotest.(check int) "counter keeps counting" 4 (Kstats.counter_value c);
  Alcotest.(check int) "hist records once enabled" 1 (Kstats.hist_count h)

let test_json () =
  let t = Kstats.create ~enabled:true () in
  let c = Kstats.counter t "a.count" in
  let h = Kstats.histogram t "a.lat" in
  Kstats.add c 3;
  Kstats.observe t h 7;
  let j = Kstats.to_json t in
  Alcotest.(check bool) "object" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
  Alcotest.(check bool) "has counter" true
    (let sub = {|"a.count":{"type":"counter","value":3}|} in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check string) "escaping" "a\\\"b\\\\c\\n"
    (Kstats.json_escape "a\"b\\c\n")

(* --- cycle neutrality ----------------------------------------------------- *)

(* The load-bearing property: a kernel with metrics enabled executes the
   exact same simulated-cycle trajectory as one with them disabled.
   Run an identical syscall workload on both and compare clocks. *)
let run_workload t =
  let sys = Core.sys t in
  for i = 0 to 19 do
    let path = Printf.sprintf "/f%d" i in
    let fd = Core.ok (Core.Syscall.sys_open sys ~path ~flags:Core.o_create) in
    ignore
      (Core.ok (Core.Syscall.sys_write sys ~fd ~data:(Bytes.make 100 'x')));
    ignore (Core.ok (Core.Syscall.sys_fstat sys ~fd));
    Core.ok (Core.Syscall.sys_close sys ~fd);
    ignore (Core.ok (Core.Syscall.sys_stat sys ~path))
  done;
  ignore (Core.ok (Core.Syscall.sys_readdir sys ~path:"/"));
  Ksim.Kernel.now (Core.kernel t)

let test_cycle_neutral () =
  let saved = !Kstats.default_enabled in
  Kstats.default_enabled := false;
  let off = run_workload (Core.boot_with Core.Config.default) in
  Kstats.default_enabled := true;
  let t_on = Core.boot_with Core.Config.default in
  let on = run_workload t_on in
  Kstats.default_enabled := saved;
  Alcotest.(check int) "identical cycle trajectory" off on;
  (* and the enabled run really did record *)
  match Kstats.find (Core.stats t_on) "syscall.total" with
  | Some (Kstats.Counter_v v) ->
      Alcotest.(check bool) "metrics recorded" true (v > 0)
  | _ -> Alcotest.fail "syscall.total missing"

let () =
  Alcotest.run "kstats"
    [
      ( "buckets",
        [
          Alcotest.test_case "boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "registration" `Quick test_registration;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "json" `Quick test_json;
        ] );
      ( "neutrality",
        [ Alcotest.test_case "cycle neutral" `Quick test_cycle_neutral ] );
    ]
