(* ftrace-style tracing: per-CPU bounded trace rings fed by cheap emit
   hooks, causal spans with parent/child links, and exporters (folded
   stacks for flamegraphs, Chrome trace_event JSON for Perfetto, a
   top-N self-profile).

   Like kstats, the library sits *below* ksim: it never touches the
   simulated clock itself.  The kernel wires three closures at boot —
   [now] (the simulated clock), [cpu] (the scheduler's active CPU) and
   [charge] (the modelled per-event emit cost, [Cost_model.trace_emit]).
   With the tracer disabled every hook is a single branch and [charge]
   is never called, so untraced runs are bit-for-bit identical to a
   kernel without kperf compiled in — the same contract the kstats
   registry keeps.

   Span model.  Synchronous spans ([span_begin]/[span_end]) follow
   stack discipline per CPU: a span begun while another is open becomes
   its child, which is how "request -> batch -> syscalls -> locks ->
   I/O" chains reconstruct.  Asynchronous spans
   ([async_begin]/[async_end]) live outside the CPU stacks — a knet
   request is in flight across many syscalls — and export as Perfetto
   async tracks.  Instants mark points (context switches, dcache
   misses, backlog drops) without duration. *)

type mode = Overwrite | Drop

(* Tracers created while this is [true] start enabled (mirrors
   [Kstats.default_enabled]). *)
let default_enabled = ref false

type ev_kind = Begin | End | Instant | Async_begin | Async_end

type event = {
  ev_kind : ev_kind;
  ev_id : int;        (* span id; 0 for instants *)
  ev_parent : int;    (* enclosing span id; 0 at top level *)
  ev_cat : string;
  ev_name : string;
  ev_ts : int;        (* simulated cycles *)
  ev_cpu : int;
  ev_pid : int;
  ev_arg : int;       (* numeric payload: spin cycles, batch size, port... *)
  ev_seq : int;       (* global emit order, 1-based *)
}

(* One bounded ring per simulated CPU.  Its slots are allocated when it
   stores its first event, so a tracer that never records costs no
   memory. *)
type ring = {
  mutable slots : event option array;
  mutable next : int;     (* next write position *)
  mutable stored : int;   (* events currently retained (<= capacity) *)
}

type frame = { f_id : int; f_cat : string; f_name : string }

type t = {
  mutable enabled : bool;
  mode : mode;
  cap : int;
  ncpus : int;
  now : unit -> int;
  cpu : unit -> int;
  charge : unit -> unit;
  stats : Kstats.t;
  st_events : Kstats.counter;
  st_spans : Kstats.counter;
  st_drops : Kstats.counter;
  st_overwritten : Kstats.counter;
  rings : ring array;
  mutable stacks : frame list array;  (* per-CPU open sync spans, top first *)
  pending_async : (int, string * string) Hashtbl.t;
  mutable next_id : int;
  mutable seq : int;
  mutable drops : int;
  mutable overwritten : int;
}

let create ?(enabled = false) ?(mode = Overwrite) ?(ring_capacity = 65536)
    ?(ncpus = 1) ?(stats = Kstats.create ~enabled:true ())
    ?(now = fun () -> 0) ?(cpu = fun () -> 0) ?(charge = fun () -> ()) () =
  if ring_capacity <= 0 then invalid_arg "Kperf.create: ring_capacity";
  if ncpus < 1 then invalid_arg "Kperf.create: ncpus";
  {
    enabled;
    mode;
    cap = ring_capacity;
    ncpus;
    now;
    cpu;
    charge;
    stats;
    st_events = Kstats.counter stats "kperf.events";
    st_spans = Kstats.counter stats "kperf.spans";
    st_drops = Kstats.counter stats "kperf.ring.drops";
    st_overwritten = Kstats.counter stats "kperf.ring.overwritten";
    rings =
      Array.init ncpus (fun _ ->
          { slots = [||]; next = 0; stored = 0 });
    stacks = Array.make ncpus [];
    pending_async = Hashtbl.create 64;
    next_id = 1;
    seq = 0;
    drops = 0;
    overwritten = 0;
  }

let set_enabled t on = t.enabled <- on
let is_enabled t = t.enabled
let ncpus t = t.ncpus
let mode t = t.mode
let drops t = t.drops
let overwritten t = t.overwritten
let emitted t = t.seq

let clear t =
  Array.iter
    (fun r ->
      Array.fill r.slots 0 (Array.length r.slots) None;
      r.next <- 0;
      r.stored <- 0)
    t.rings;
  t.stacks <- Array.make t.ncpus [];
  Hashtbl.reset t.pending_async;
  t.next_id <- 1;
  t.seq <- 0;
  t.drops <- 0;
  t.overwritten <- 0

let clamp_cpu t c = if c >= 0 && c < t.ncpus then c else 0

(* Store one event in its CPU's ring, honouring the overflow mode. *)
let store t ev =
  let r = t.rings.(clamp_cpu t ev.ev_cpu) in
  if Array.length r.slots = 0 then r.slots <- Array.make t.cap None;
  if r.stored < t.cap then begin
    r.slots.(r.next) <- Some ev;
    r.next <- (r.next + 1) mod t.cap;
    r.stored <- r.stored + 1
  end
  else
    match t.mode with
    | Drop ->
        t.drops <- t.drops + 1;
        Kstats.incr t.stats t.st_drops
    | Overwrite ->
        r.slots.(r.next) <- Some ev;
        r.next <- (r.next + 1) mod t.cap;
        t.overwritten <- t.overwritten + 1;
        Kstats.incr t.stats t.st_overwritten

(* Precondition: [t.enabled].  The timestamp is taken before [charge] so
   a span's begin precedes its own emit cost. *)
let emit t ~kind ~id ~parent ~cat ~name ~pid ~arg =
  t.seq <- t.seq + 1;
  let ev =
    {
      ev_kind = kind;
      ev_id = id;
      ev_parent = parent;
      ev_cat = cat;
      ev_name = name;
      ev_ts = t.now ();
      ev_cpu = t.cpu ();
      ev_pid = pid;
      ev_arg = arg;
      ev_seq = t.seq;
    }
  in
  Kstats.incr t.stats t.st_events;
  t.charge ();
  store t ev

let top_of t cpu =
  match t.stacks.(cpu) with [] -> 0 | f :: _ -> f.f_id

let current_span t =
  if not t.enabled then 0 else top_of t (clamp_cpu t (t.cpu ()))

let span_begin t ?(pid = 0) ?(arg = 0) ~cat ~name () =
  if not t.enabled then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    Kstats.incr t.stats t.st_spans;
    let cpu = clamp_cpu t (t.cpu ()) in
    emit t ~kind:Begin ~id ~parent:(top_of t cpu) ~cat ~name ~pid ~arg;
    t.stacks.(cpu) <- { f_id = id; f_cat = cat; f_name = name } :: t.stacks.(cpu);
    id
  end

(* Find the CPU whose stack holds span [id]: the active CPU in the
   overwhelmingly common case (spans are begun and ended within one
   scheduler slice), falling back to a scan. *)
let stack_cpu_of t id =
  let active = clamp_cpu t (t.cpu ()) in
  if List.exists (fun f -> f.f_id = id) t.stacks.(active) then Some active
  else
    let found = ref None in
    Array.iteri
      (fun c st ->
        if !found = None && List.exists (fun f -> f.f_id = id) st then
          found := Some c)
      t.stacks;
    !found

let span_end t ?(pid = 0) ?(arg = 0) id =
  if t.enabled && id > 0 then
    match stack_cpu_of t id with
    | None -> ()  (* begun while disabled, or cleared since *)
    | Some cpu ->
        let frame = List.find (fun f -> f.f_id = id) t.stacks.(cpu) in
        (* drop mis-nested frames above the one being ended *)
        let rec unwind = function
          | [] -> []
          | f :: rest -> if f.f_id = id then rest else unwind rest
        in
        t.stacks.(cpu) <- unwind t.stacks.(cpu);
        emit t ~kind:End ~id ~parent:(top_of t cpu) ~cat:frame.f_cat
          ~name:frame.f_name ~pid ~arg

let with_span t ?pid ?arg ~cat ~name f =
  if not t.enabled then f ()
  else begin
    let id = span_begin t ?pid ?arg ~cat ~name () in
    match f () with
    | v ->
        span_end t ?pid id;
        v
    | exception e ->
        span_end t ?pid id;
        raise e
  end

let instant t ?(pid = 0) ?(arg = 0) ~cat ~name () =
  if t.enabled then
    let cpu = clamp_cpu t (t.cpu ()) in
    emit t ~kind:Instant ~id:0 ~parent:(top_of t cpu) ~cat ~name ~pid ~arg

let async_begin t ?(pid = 0) ?(arg = 0) ~cat ~name () =
  if not t.enabled then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    Kstats.incr t.stats t.st_spans;
    let cpu = clamp_cpu t (t.cpu ()) in
    Hashtbl.replace t.pending_async id (cat, name);
    emit t ~kind:Async_begin ~id ~parent:(top_of t cpu) ~cat ~name ~pid ~arg;
    id
  end

let async_end t ?(pid = 0) ?(arg = 0) id =
  if t.enabled && id > 0 then begin
    let cat, name =
      match Hashtbl.find_opt t.pending_async id with
      | Some cn ->
          Hashtbl.remove t.pending_async id;
          cn
      | None -> ("async", "span")
    in
    let cpu = clamp_cpu t (t.cpu ()) in
    emit t ~kind:Async_end ~id ~parent:(top_of t cpu) ~cat ~name ~pid ~arg
  end

(* All retained events, in emit order.  Each ring's slots are already
   unique by [ev_seq], so a global sort reconstructs the interleaving
   regardless of wrap position. *)
let events t =
  let acc = ref [] in
  Array.iter
    (fun r ->
      Array.iter
        (function Some ev -> acc := ev :: !acc | None -> ())
        r.slots)
    t.rings;
  List.sort (fun a b -> compare a.ev_seq b.ev_seq) !acc

(* --- span replay (shared by the folded and top exporters) ------------- *)

let label cat name = cat ^ ":" ^ name

type replay_frame = {
  rf_id : int;
  rf_label : string;
  rf_start : int;
  mutable rf_child : int;  (* cycles attributed to children *)
}

(* Replay sync Begin/End events, calling [f ~path ~label ~total ~self]
   for every span as it closes.  [path] is the root-first stack of
   labels at the time the span ran.  Orphan Ends (Begin lost to ring
   overflow) are ignored; spans still open when the trace stops are
   closed at the last timestamp seen so their cycles are not lost. *)
let replay events f =
  let events = List.sort (fun a b -> compare a.ev_seq b.ev_seq) events in
  let max_ts = List.fold_left (fun m e -> max m e.ev_ts) 0 events in
  let stacks : (int, replay_frame list ref) Hashtbl.t = Hashtbl.create 8 in
  let cpus = ref [] in
  let stack_of cpu =
    match Hashtbl.find_opt stacks cpu with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add stacks cpu r;
        cpus := cpu :: !cpus;
        r
  in
  let path_of st =
    String.concat ";" (List.rev_map (fun fr -> fr.rf_label) st)
  in
  let close st ts =
    match !st with
    | [] -> ()
    | fr :: rest ->
        let total = max 0 (ts - fr.rf_start) in
        let self = max 0 (total - fr.rf_child) in
        f ~path:(path_of !st) ~label:fr.rf_label ~total ~self;
        (match rest with p :: _ -> p.rf_child <- p.rf_child + total | [] -> ());
        st := rest
  in
  List.iter
    (fun e ->
      match e.ev_kind with
      | Begin ->
          let st = stack_of e.ev_cpu in
          st :=
            {
              rf_id = e.ev_id;
              rf_label = label e.ev_cat e.ev_name;
              rf_start = e.ev_ts;
              rf_child = 0;
            }
            :: !st
      | End ->
          let st = stack_of e.ev_cpu in
          if List.exists (fun fr -> fr.rf_id = e.ev_id) !st then begin
            while
              match !st with fr :: _ -> fr.rf_id <> e.ev_id | [] -> false
            do
              close st e.ev_ts
            done;
            close st e.ev_ts
          end
      | Instant | Async_begin | Async_end -> ())
    events;
  List.iter
    (fun cpu ->
      let st = Hashtbl.find stacks cpu in
      while !st <> [] do
        close st max_ts
      done)
    (List.sort compare !cpus)

(* Folded stacks: "cat:name;cat:name;... self_cycles" lines, one per
   distinct stack, sorted — feed to flamegraph.pl / speedscope. *)
let fold_events events =
  let weights : (string, int) Hashtbl.t = Hashtbl.create 64 in
  replay events (fun ~path ~label:_ ~total:_ ~self ->
      if self > 0 then
        Hashtbl.replace weights path
          (self + Option.value ~default:0 (Hashtbl.find_opt weights path)));
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights [] in
  let b = Buffer.create 4096 in
  List.iter
    (fun (path, w) -> Buffer.add_string b (Printf.sprintf "%s %d\n" path w))
    (List.sort compare lines);
  Buffer.contents b

let folded t = fold_events (events t)

(* --- top-N self profile ------------------------------------------------ *)

type profile_row = {
  p_label : string;
  p_count : int;
  p_total : int;  (* inclusive cycles *)
  p_self : int;   (* exclusive cycles *)
  p_share : float; (* p_self / all self cycles, computed pre-truncation *)
}

let top_of_events ?(n = 10) events =
  let agg : (string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  replay events (fun ~path:_ ~label ~total ~self ->
      let c, tt, s =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt agg label)
      in
      Hashtbl.replace agg label (c + 1, tt + total, s + self));
  let all_self =
    Hashtbl.fold (fun _ (_, _, s) acc -> acc + s) agg 0 |> max 1
  in
  let rows =
    Hashtbl.fold
      (fun label (c, tt, s) acc ->
        {
          p_label = label;
          p_count = c;
          p_total = tt;
          p_self = s;
          p_share = float_of_int s /. float_of_int all_self;
        }
        :: acc)
      agg []
  in
  let rows =
    List.sort
      (fun a b ->
        match compare b.p_self a.p_self with
        | 0 -> (
            match compare b.p_total a.p_total with
            | 0 -> compare a.p_label b.p_label
            | c -> c)
        | c -> c)
      rows
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take n rows

let top ?n t = top_of_events ?n (events t)

let pp_top ppf rows =
  Fmt.pf ppf "%-32s %10s %14s %14s %6s@." "span" "count" "self(cy)"
    "total(cy)" "self%";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-32s %10d %14d %14d %5.1f%%@." r.p_label r.p_count r.p_self
        r.p_total (100. *. r.p_share))
    rows

(* --- Chrome trace_event JSON (Perfetto) -------------------------------- *)

(* One process (pid 1) with a thread per simulated CPU carries the sync
   spans; async spans get their own id-keyed tracks ("b"/"e" phases).
   Timestamps are raw simulated cycles (Perfetto's "us" axis; only
   ratios matter).  Every record carries its span id, parent, simulated
   pid and arg in [args], so the export parses back losslessly. *)
let chrome_of_events ~ncpus events =
  let esc = Kstats.json_escape in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"ksim\"}}";
  for c = 0 to ncpus - 1 do
    Buffer.add_string b
      (Printf.sprintf
         ",{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu%d\"}}"
         c c)
  done;
  List.iter
    (fun e ->
      let ph, extra =
        match e.ev_kind with
        | Begin -> ("B", "")
        | End -> ("E", "")
        | Instant -> ("i", ",\"s\":\"t\"")
        | Async_begin -> ("b", Printf.sprintf ",\"id\":%d" e.ev_id)
        | Async_end -> ("e", Printf.sprintf ",\"id\":%d" e.ev_id)
      in
      Buffer.add_string b
        (Printf.sprintf
           ",{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%d,\"cat\":\"%s\",\"name\":\"%s\"%s,\"args\":{\"span\":%d,\"parent\":%d,\"kpid\":%d,\"arg\":%d}}"
           ph e.ev_cpu e.ev_ts (esc e.ev_cat) (esc e.ev_name) extra e.ev_id
           e.ev_parent e.ev_pid e.ev_arg))
    (List.sort (fun a b -> compare a.ev_seq b.ev_seq) events);
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let chrome_json t = chrome_of_events ~ncpus:t.ncpus (events t)

(* --- minimal JSON parser ----------------------------------------------- *)

(* Hand-rolled (the toolchain ships no JSON library): enough of RFC 8259
   for our own exports and BENCH_kstats.json — objects, arrays, strings
   with escapes, numbers, booleans, null. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | Some d -> fail "expected '%c' at %d, got '%c'" c !pos d
      | None -> fail "expected '%c' at %d, got end of input" c !pos
    in
    let parse_lit lit v =
      String.iter expect lit;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          if c = '"' then Buffer.contents b
          else if c = '\\' then begin
            (if !pos >= n then fail "unterminated escape"
             else
               let e = s.[!pos] in
               advance ();
               match e with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'b' -> Buffer.add_char b '\b'
               | 'f' -> Buffer.add_char b '\012'
               | 'n' -> Buffer.add_char b '\n'
               | 'r' -> Buffer.add_char b '\r'
               | 't' -> Buffer.add_char b '\t'
               | 'u' ->
                   if !pos + 4 > n then fail "truncated \\u escape"
                   else begin
                     let hex = String.sub s !pos 4 in
                     pos := !pos + 4;
                     let code =
                       try int_of_string ("0x" ^ hex)
                       with _ -> fail "bad \\u escape %s" hex
                     in
                     (* enough for kstats' control-char escapes; other
                        code points degrade to '?' *)
                     if code < 256 then Buffer.add_char b (Char.chr code)
                     else Buffer.add_char b '?'
                   end
               | c -> fail "bad escape '\\%c'" c);
            go ()
          end
          else begin
            Buffer.add_char b c;
            go ()
          end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> Num f
      | None -> fail "bad number %S at %d" lit start
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}' at %d" !pos
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']' at %d" !pos
            in
            elems []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> parse_lit "true" (Bool true)
      | Some 'f' -> parse_lit "false" (Bool false)
      | Some 'n' -> parse_lit "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at %d" !pos;
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let to_int = function
    | Num f -> int_of_float f
    | _ -> fail "expected number"

  let to_float = function Num f -> f | _ -> fail "expected number"
  let to_string = function Str s -> s | _ -> fail "expected string"
  let to_list = function Arr l -> l | _ -> fail "expected array"
end

(* Parse a Chrome trace back into events (metadata records are skipped).
   [ev_seq] is reassigned from array order, which {!chrome_of_events}
   preserves, so export -> parse -> export is a fixed point. *)
let events_of_chrome json =
  let root = Json.parse json in
  let traces =
    match Json.member "traceEvents" root with
    | Some (Json.Arr l) -> l
    | _ -> Json.fail "no traceEvents array"
  in
  let seq = ref 0 in
  List.filter_map
    (fun j ->
      let str key =
        match Json.member key j with Some (Json.Str s) -> s | _ -> ""
      in
      let num key =
        match Json.member key j with Some v -> Json.to_int v | None -> 0
      in
      let arg key =
        match Json.member "args" j with
        | Some a -> (
            match Json.member key a with Some v -> Json.to_int v | None -> 0)
        | None -> 0
      in
      let kind =
        match str "ph" with
        | "B" -> Some Begin
        | "E" -> Some End
        | "i" -> Some Instant
        | "b" -> Some Async_begin
        | "e" -> Some Async_end
        | _ -> None  (* "M" and anything else *)
      in
      match kind with
      | None -> None
      | Some k ->
          incr seq;
          Some
            {
              ev_kind = k;
              ev_id = arg "span";
              ev_parent = arg "parent";
              ev_cat = str "cat";
              ev_name = str "name";
              ev_ts = num "ts";
              ev_cpu = num "tid";
              ev_pid = arg "kpid";
              ev_arg = arg "arg";
              ev_seq = !seq;
            })
    traces
