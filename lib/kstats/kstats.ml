(* Kernel-wide metrics registry (ROADMAP "observability").

   The paper's §3.3 argument is that optimisation work is only as good
   as its measurements: log_event makes events *visible*, and this
   module makes them *countable*.  A registry holds named counters,
   gauges and log₂-bucketed histograms; subsystems obtain handles once
   at creation time and update them from their hot paths.

   Counters and gauges always count: they are the only record of each
   count they hold, so no subsystem keeps a second copy in a field of
   its own.  [enabled] gates histograms only — an [observe] on a
   disabled registry is a single branch and touches nothing.  Recording
   never advances the simulated clock, so kstats is cycle-neutral in
   either state (test_kstats asserts this).

   This library sits below ksim (it depends only on Fmt) so every layer
   of the kernel can use it; timestamps are plain integers supplied by
   the caller (Sim_clock cycles in practice). *)

(* When set, kernels created afterwards boot with their histograms
   enabled.  The bench harness flips this to collect per-experiment
   metrics without touching each experiment. *)
let default_enabled = ref false

type counter = { mutable c : int }

type gauge = { mutable g : int; mutable g_max : int }

(* log₂ buckets: bucket 0 holds values <= 1, bucket i holds
   [2^i, 2^(i+1) - 1].  62 buckets cover every positive OCaml int. *)
let n_buckets = 62

type hist = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type metric = Counter of counter | Gauge of gauge | Hist of hist

type t = {
  mutable enabled : bool;
  by_name : (string, metric) Hashtbl.t;
  mutable names : string list; (* reverse registration order *)
}

let create ?(enabled = false) () =
  { enabled; by_name = Hashtbl.create 64; names = [] }

let set_enabled t on = t.enabled <- on
let is_enabled t = t.enabled

(* --- registration ------------------------------------------------------ *)

exception Type_clash of string

let register t name make =
  match Hashtbl.find_opt t.by_name name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace t.by_name name m;
      t.names <- name :: t.names;
      m

let counter t name =
  match register t name (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | Gauge _ | Hist _ -> raise (Type_clash name)

let gauge t name =
  match register t name (fun () -> Gauge { g = 0; g_max = 0 }) with
  | Gauge g -> g
  | Counter _ | Hist _ -> raise (Type_clash name)

let fresh_hist () =
  {
    buckets = Array.make n_buckets 0;
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = 0;
  }

let histogram t name =
  match register t name (fun () -> Hist (fresh_hist ())) with
  | Hist h -> h
  | Counter _ | Gauge _ -> raise (Type_clash name)

(* --- hot-path updates (histograms: one branch when disabled) ----------- *)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n

let set g v =
  g.g <- v;
  if v > g.g_max then g.g_max <- v

let gauge_add g n =
  g.g <- g.g + n;
  if g.g > g.g_max then g.g_max <- g.g

let bucket_of_value v =
  if v <= 1 then 0
  else begin
    let i = ref 0 in
    let v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      i := !i + 1
    done;
    min !i (n_buckets - 1)
  end

let bucket_bounds i =
  if i <= 0 then (0, 1) else (1 lsl i, (1 lsl (i + 1)) - 1)

let record_hist h v =
  let v = max 0 v in
  h.buckets.(bucket_of_value v) <- h.buckets.(bucket_of_value v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let observe t h v = if t.enabled then record_hist h v

(* --- reading ----------------------------------------------------------- *)

let counter_value (c : counter) = c.c
let gauge_value (g : gauge) = g.g
let gauge_max (g : gauge) = g.g_max
let hist_count h = h.h_count
let hist_sum h = h.h_sum

let hist_mean h =
  if h.h_count = 0 then 0. else float_of_int h.h_sum /. float_of_int h.h_count

(* Percentile estimate from the buckets: the value returned is the upper
   bound of the bucket containing the rank, clamped to the observed
   [min, max] so p0 ~ min and p100 = max exactly. *)
let percentile h p =
  if h.h_count = 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int h.h_count)))
    in
    let rec go i cum =
      if i >= n_buckets then h.h_max
      else begin
        let cum = cum + h.buckets.(i) in
        if cum >= rank then snd (bucket_bounds i) else go (i + 1) cum
      end
    in
    let v = go 0 0 in
    min h.h_max (max h.h_min v)
  end

(* Pure bucket-wise merge; the sources are unchanged. *)
let merge_hist a b =
  let m = fresh_hist () in
  Array.blit a.buckets 0 m.buckets 0 n_buckets;
  Array.iteri (fun i n -> m.buckets.(i) <- m.buckets.(i) + n) b.buckets;
  m.h_count <- a.h_count + b.h_count;
  m.h_sum <- a.h_sum + b.h_sum;
  m.h_min <- min a.h_min b.h_min;
  m.h_max <- max a.h_max b.h_max;
  m

(* --- snapshots --------------------------------------------------------- *)

type hist_view = {
  v_count : int;
  v_sum : int;
  v_min : int;
  v_max : int;
  v_mean : float;
  v_p50 : int;
  v_p90 : int;
  v_p99 : int;
  v_buckets : (int * int * int) list; (* lo, hi, n — nonzero buckets only *)
}

type view =
  | Counter_v of int
  | Gauge_v of { value : int; max : int }
  | Hist_v of hist_view

let view_hist h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      buckets := (lo, hi, h.buckets.(i)) :: !buckets
    end
  done;
  {
    v_count = h.h_count;
    v_sum = h.h_sum;
    v_min = (if h.h_count = 0 then 0 else h.h_min);
    v_max = h.h_max;
    v_mean = hist_mean h;
    v_p50 = percentile h 50.;
    v_p90 = percentile h 90.;
    v_p99 = percentile h 99.;
    v_buckets = !buckets;
  }

let view = function
  | Counter c -> Counter_v c.c
  | Gauge g -> Gauge_v { value = g.g; max = g.g_max }
  | Hist h -> Hist_v (view_hist h)

(* Metrics in registration order. *)
let names t = List.rev t.names

let dump t =
  List.map (fun n -> (n, view (Hashtbl.find t.by_name n))) (names t)

let find t name = Option.map view (Hashtbl.find_opt t.by_name name)

(* Fold metrics into [into]: counters add, gauges keep the peak,
   histograms merge bucket-wise.  Used by the bench harness to aggregate
   the registries of every kernel booted during one experiment. *)
let merge_into ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src.by_name name with
      | None -> ()
      | Some (Counter c) ->
          let d = counter into name in
          d.c <- d.c + c.c
      | Some (Gauge g) ->
          let d = gauge into name in
          d.g <- max d.g g.g;
          d.g_max <- max d.g_max g.g_max
      | Some (Hist h) ->
          let d = histogram into name in
          let m = merge_hist d h in
          Array.blit m.buckets 0 d.buckets 0 n_buckets;
          d.h_count <- m.h_count;
          d.h_sum <- m.h_sum;
          d.h_min <- m.h_min;
          d.h_max <- m.h_max)
    (names src)

(* --- /proc-style report ------------------------------------------------ *)

let pp_report ppf t =
  let metrics = dump t in
  Fmt.pf ppf "kstats: %d metrics (%s)@."
    (List.length metrics)
    (if t.enabled then "enabled" else "disabled");
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> Fmt.pf ppf "%-40s %12d@." name n
      | Gauge_v { value; max } ->
          Fmt.pf ppf "%-40s %12d  (peak %d)@." name value max
      | Hist_v h ->
          Fmt.pf ppf
            "%-40s %12d  mean %.1f  p50 %d  p90 %d  p99 %d  max %d@." name
            h.v_count h.v_mean h.v_p50 h.v_p90 h.v_p99 h.v_max)
    metrics

(* --- JSON -------------------------------------------------------------- *)

(* Hand-rolled serializer: the toolchain has no JSON library and the
   container forbids adding one.  Metric names are ASCII identifiers but
   strings are escaped anyway. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_view b = function
  | Counter_v n ->
      Buffer.add_string b (Printf.sprintf {|{"type":"counter","value":%d}|} n)
  | Gauge_v { value; max } ->
      Buffer.add_string b
        (Printf.sprintf {|{"type":"gauge","value":%d,"max":%d}|} value max)
  | Hist_v h ->
      Buffer.add_string b
        (Printf.sprintf
           {|{"type":"histogram","count":%d,"sum":%d,"min":%d,"max":%d,"mean":%.3f,"p50":%d,"p90":%d,"p99":%d,"buckets":[|}
           h.v_count h.v_sum h.v_min h.v_max h.v_mean h.v_p50 h.v_p90 h.v_p99);
      List.iteri
        (fun i (lo, hi, n) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf {|{"lo":%d,"hi":%d,"n":%d}|} lo hi n))
        h.v_buckets;
      Buffer.add_string b "]}"

let buffer_json b t =
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf {|"%s":|} (json_escape name));
      json_of_view b v)
    (dump t);
  Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create 1024 in
  buffer_json b t;
  Buffer.contents b
