(* Benchmark-side spans around calls into each layer's public functions.

   A span records its name, parent, host start/end (monotonic ns),
   simulated start/end (cycles) and the OCaml words allocated inside it.
   Spans live in growable arrays and are only written out when the run
   ends.  With tracing off, [enter] is one branch and allocates nothing,
   so untraced runs execute exactly the same program calls; the spans
   never touch the simulated kernel beyond reading its clock, so every
   simulated number is the same traced or not. *)

let enabled = ref false

(* Span names are interned to small ints. *)
let names : string array ref = ref [||]

let name id = !names.(id)

let intern s =
  let rec find i =
    if i >= Array.length !names then begin
      names := Array.append !names [| s |];
      i
    end
    else if !names.(i) = s then i
    else find (i + 1)
  in
  find 0

let cap = ref 0
let n = ref 0
let a_name = ref [||]
let a_parent = ref [||]
let a_h0 = ref [||]
let a_h1 = ref [||]
let a_s0 = ref [||]
let a_s1 = ref [||]
let a_w = ref [||]
let cur = ref (-1)

(* Words one empty enter/leave pair allocates itself (the two
   [Gc.quick_stat] records); subtracted from every span. *)
let self_words = ref 0

let grow () =
  let c = max 1024 (2 * !cap) in
  let ext a = Array.append !a (Array.make (c - !cap) 0) in
  a_name := ext a_name;
  a_parent := ext a_parent;
  a_h0 := ext a_h0;
  a_h1 := ext a_h1;
  a_s0 := ext a_s0;
  a_s1 := ext a_s1;
  a_w := ext a_w;
  cap := c

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let words () =
  let s = Gc.quick_stat () in
  int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

let reset () =
  n := 0;
  cur := -1

(* Open a span; returns its handle (-1 when tracing is off). *)
let enter kernel id =
  if not !enabled then -1
  else begin
    if !n = !cap then grow ();
    let i = !n in
    n := i + 1;
    !a_name.(i) <- id;
    !a_parent.(i) <- !cur;
    cur := i;
    !a_s0.(i) <- Ksim.Kernel.now kernel;
    !a_w.(i) <- words ();
    !a_h0.(i) <- now_ns ();
    i
  end

let leave kernel i =
  if i >= 0 then begin
    !a_h1.(i) <- now_ns ();
    !a_w.(i) <- words () - !a_w.(i) - !self_words;
    !a_s1.(i) <- Ksim.Kernel.now kernel;
    cur := !a_parent.(i)
  end

(* A span that began before the kernel existed (the boot): host start and
   allocation count were read by the caller, simulated start is cycle 0. *)
let add_closed kernel id ~h0 ~w0 =
  if !enabled then begin
    let i = enter kernel id in
    !a_h0.(i) <- h0;
    !a_w.(i) <- w0;
    !a_s0.(i) <- 0;
    leave kernel i
  end

let calibrate () =
  let saved = !enabled in
  enabled := true;
  reset ();
  let k = Ksim.Kernel.create () in
  self_words := 0;
  let samples =
    List.init 8 (fun _ ->
        let s = enter k 0 in
        leave k s;
        !a_w.(s))
  in
  self_words := List.fold_left min max_int samples;
  reset ();
  enabled := saved

let count () = !n
let host_ns i = !a_h1.(i) - !a_h0.(i)
let sim_cycles i = !a_s1.(i) - !a_s0.(i)
let alloc_words i = !a_w.(i)
let name_of i = !a_name.(i)

(* Host ns of span [i] not covered by its direct children. *)
let self_ns () =
  let self = Array.init !n host_ns in
  for i = 0 to !n - 1 do
    let p = !a_parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - host_ns i
  done;
  self

(* Samples of one span name from the current buffer. *)
type samples = { host : int array; sim : int array; words : int array }

let samples_of pred =
  let idx = List.filter (fun i -> pred (name (name_of i))) (List.init !n Fun.id) in
  let pick f = Array.of_list (List.map f idx) in
  { host = pick host_ns; sim = pick sim_cycles; words = pick alloc_words }

let concat_samples a b =
  {
    host = Array.append a.host b.host;
    sim = Array.append a.sim b.sim;
    words = Array.append a.words b.words;
  }

let empty_samples = { host = [||]; sim = [||]; words = [||] }

(* Write the buffer as JSON: one object per span, in start order. *)
let write_json path =
  let oc = open_out path in
  output_string oc "{\"spans\":[\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc
      "%s{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"host_start_ns\":%d,\
       \"host_end_ns\":%d,\"sim_start\":%d,\"sim_end\":%d,\"alloc_words\":%d}\n"
      (if i = 0 then "" else ",")
      i
      (name (name_of i))
      !a_parent.(i) !a_h0.(i) !a_h1.(i) !a_s0.(i) !a_s1.(i) !a_w.(i)
  done;
  output_string oc "]}\n";
  close_out oc
