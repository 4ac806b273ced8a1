(* Input generation.  Every input a workload hands the program is made
   here, from the seed alone, before any timer starts. *)

let rng seed tag = Random.State.make [| seed; tag |]

(* Random bytes that write payloads are cut from; a payload's content
   depends on where it was cut, so reads check real data. *)
let arena st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let cut st ar len = Bytes.sub ar (Random.State.int st (Bytes.length ar - len + 1)) len

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] values spread evenly over [lo, hi], in a seeded order.  Sizes and
   mixes are drawn this way rather than independently, so every seed
   gets the same multiset and a per-op average does not drift with the
   seed; the seed still decides order, placement and contents. *)
let spread st n lo hi =
  shuffle st (Array.init n (fun i -> if n <= 1 then lo else lo + (i * (hi - lo) / (n - 1))))

(* [n] picks of [0, k) with each value equally often (up to rounding). *)
let balanced st n k = shuffle st (Array.init n (fun i -> i mod k))

(* ---- PostMark-style transactions (postmark, journal) ------------------- *)

type fsop =
  | Create of { id : int; path : string; data : Bytes.t }
  | Delete of { id : int; path : string }
  | Read of { id : int; path : string }
  | Append of { id : int; path : string; data : Bytes.t }

type fs = {
  dir : string;
  pool : fsop array;  (** the initial files, all [Create] *)
  txs : (fsop * fsop) array;
      (** a create-or-delete, then a read-or-append of a live file *)
}

(* Transactions come in pairs: one create and one delete, one read and
   one append, each pair in a seeded order, so the live set stays at the
   pool size.  The live set is an array with swap-remove plus an index,
   so picking and deleting a live file are O(1). *)
let fs ~seed ~dir ~files ~transactions ~min_size ~max_size =
  let st = rng seed 1 in
  let ar = arena st (8 * max_size) in
  let path id = Printf.sprintf "%s/pm%06d" dir id in
  let live = Array.make (files + transactions + 1) 0 in
  let pos = Hashtbl.create (2 * files) in
  let nlive = ref 0 and next = ref 0 in
  let add id =
    live.(!nlive) <- id;
    Hashtbl.replace pos id !nlive;
    incr nlive
  in
  let remove id =
    let i = Hashtbl.find pos id in
    let last = live.(!nlive - 1) in
    live.(i) <- last;
    Hashtbl.replace pos last i;
    Hashtbl.remove pos id;
    decr nlive
  in
  let pick () = live.(Random.State.int st !nlive) in
  let pairs = (transactions + 1) / 2 in
  let create_sizes = spread st (files + pairs) min_size max_size in
  let append_sizes = spread st pairs min_size (max min_size (max_size / 4)) in
  let creates = ref 0 and appends = ref 0 in
  let create () =
    let id = !next in
    incr next;
    add id;
    let size = create_sizes.(!creates) in
    incr creates;
    Create { id; path = path id; data = cut st ar size }
  in
  let pool = Array.init files (fun _ -> create ()) in
  (* each pair's order: create or delete first, read or append first *)
  let orders = Array.init pairs (fun _ -> (Random.State.bool st, Random.State.bool st)) in
  let txs =
    Array.init transactions (fun i ->
        let create_first, read_first = orders.(i / 2) in
        let first =
          if i mod 2 = 0 = create_first || !nlive = 0 then create ()
          else begin
            let id = pick () in
            remove id;
            Delete { id; path = path id }
          end
        in
        let second =
          if !nlive = 0 then create ()
          else
            let id = pick () in
            if i mod 2 = 0 = read_first then Read { id; path = path id }
            else begin
              let size = append_sizes.(!appends) in
              incr appends;
              Append { id; path = path id; data = cut st ar size }
            end
        in
        (first, second))
  in
  { dir; pool; txs }

(* ---- keep-alive web serving (web) -------------------------------------- *)

type web = {
  cfg : Workloads.Webserver.net_config;  (** [make_ring] is set at boot *)
  docs : Bytes.t array;  (** document contents, by index *)
  digest : string;  (** the [Knet.Traffic.digest] a correct server yields *)
}

let frame_header len =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int len);
  b

(* The expected digest, rebuilt from the documents and the request
   schedule alone: an MD5 over the per-connection MD5s of each
   connection's 8-byte-length-framed response stream. *)
let web_digest (cfg : Workloads.Webserver.net_config) docs =
  let per_conn =
    List.init cfg.conns (fun conn ->
        let b = Buffer.create 4096 in
        for req = 0 to cfg.requests_per_conn - 1 do
          let d = docs.(Workloads.Webserver.net_doc_index cfg ~conn ~req) in
          Buffer.add_bytes b (frame_header (Bytes.length d));
          Buffer.add_bytes b d
        done;
        Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  Digest.to_hex (Digest.string (String.concat "," per_conn))

let web ~seed ~conns ~requests_per_conn ~pipeline ~documents =
  let st = rng seed 2 in
  let ar = arena st 16_384 in
  let docs = Array.map (cut st ar) (spread st documents 1024 3072) in
  let base = Workloads.Webserver.net_default_config in
  let cfg =
    { base with
      variant = Workloads.Webserver.Net_ring;
      docs = { base.docs with documents; seed; dir = "/www" };
      conns;
      requests_per_conn;
      pipeline;
      (* every client is queued at once: the backlog holds them all, so
         none is refused and the server is never starved of work *)
      backlog = conns;
      spacing = 0;
      think = 0 }
  in
  { cfg; docs; digest = web_digest cfg docs }

(* ---- Cosy record store (cosy_db) --------------------------------------- *)

(* One record operation of a program, with where its result lands. *)
type pop =
  | P_read of { slot : int; recno : int; soff : int }
  | P_write of { slot : int; recno : int; soff : int }
      (** the record's new bytes are staged at [soff] before submit *)
  | P_scan of { tot : int; first : int; count : int; soff : int }
      (** a counted loop of [count] preads into one shared range: the
          slot [tot] sums their lengths and the range keeps the last *)

type program = {
  compound : Cosy.Compound.t;
  pops : pop array;
  rec_ops : int;  (** record operations performed *)
}

type submission = {
  prog : program;
  data : Bytes.t array;  (** new record bytes, one per [P_write], in order *)
}

type cosy = {
  rec_size : int;
  fd : int;  (** descriptor the record file gets: the process's first *)
  shared_size : int;
  init : Bytes.t;  (** the record file's initial contents *)
  init_writes : Bytes.t array;  (** [init] cut into the writes that lay it down *)
  store : Bytes.t;
      (** the shadow record store; each repeat resets it to [init], so
          it is allocated once, with the inputs *)
  subs : submission array;
}

let cosy_path = "/db/records"

(* Random lookups: [k] record operations, [k / 10] of them updates at
   seeded positions. *)
let lookup st ~fd ~nrec ~rs ~shared_size ~k =
  let c = Cosy.Cosy_lib.create ~shared_size () in
  let is_write = shuffle st (Array.init k (fun i -> i < k / 10)) in
  let pops =
    Array.init k (fun i ->
        let recno = Random.State.int st nrec in
        let soff = Cosy.Cosy_lib.alloc_shared c rs in
        let args = Cosy.Cosy_op.[ Const fd; Shared soff; Const rs; Const (recno * rs) ] in
        if is_write.(i) then
          P_write { slot = Cosy.Cosy_lib.syscall c "pwrite" args; recno; soff }
        else P_read { slot = Cosy.Cosy_lib.syscall c "pread" args; recno; soff })
  in
  { compound = Cosy.Cosy_lib.finish c; pops; rec_ops = k }

(* A sequential scan written out op by op into adjacent shared ranges
   (what kopt's copy coalescing applies to). *)
let straight_scan st ~fd ~nrec ~rs ~shared_size ~count =
  let c = Cosy.Cosy_lib.create ~shared_size () in
  let first = Random.State.int st (nrec - count + 1) in
  let pops =
    Array.init count (fun i ->
        let recno = first + i in
        let soff = Cosy.Cosy_lib.alloc_shared c rs in
        P_read
          { slot =
              Cosy.Cosy_lib.syscall c "pread"
                Cosy.Cosy_op.[ Const fd; Shared soff; Const rs; Const (recno * rs) ];
            recno; soff })
  in
  { compound = Cosy.Cosy_lib.finish c; pops; rec_ops = count }

(* A sequential scan as the counted loop Cosy-GCC emits (what the
   checker proves bounded and kopt hoists). *)
let loop_scan st ~fd ~nrec ~rs ~shared_size ~count =
  let open Cosy.Cosy_op in
  let module L = Cosy.Cosy_lib in
  let c = L.create ~shared_size () in
  let first = Random.State.int st (nrec - count + 1) in
  let soff = L.alloc_shared c rs in
  let i = L.set_fresh c (Const 0) in
  let off = L.set_fresh c (Const (first * rs)) in
  let tot = L.set_fresh c (Const 0) in
  let cond = L.fresh_slot c in
  let head = L.next_index c in
  L.arith c ~dst:cond Alt (Slot i) (Const count);
  let guard = L.next_index c in
  L.jz c (Slot cond) guard;
  let n = L.syscall c "pread" [ Const fd; Shared soff; Const rs; Slot off ] in
  L.arith c ~dst:tot Aadd (Slot tot) (Slot n);
  L.arith c ~dst:off Aadd (Slot off) (Const rs);
  L.arith c ~dst:i Aadd (Slot i) (Const 1);
  L.jmp c head;
  L.patch_jump c ~at:guard ~target:(L.next_index c);
  { compound = L.finish c; pops = [| P_scan { tot; first; count; soff } |];
    rec_ops = count }

let cosy ~seed ~nrec ~rec_size ~submissions ~hot_share_pct =
  let st = rng seed 3 in
  let fd = 3 and rs = rec_size and shared_size = 65_536 in
  let init = arena st (nrec * rs) in
  let ar = arena st (16 * rs) in
  (* program shapes in a fixed 7:2:1 mix of lookups, written-out scans
     and loop scans *)
  let program kind =
    if kind < 7 then lookup st ~fd ~nrec ~rs ~shared_size ~k:20
    else if kind < 9 then straight_scan st ~fd ~nrec ~rs ~shared_size ~count:32
    else loop_scan st ~fd ~nrec ~rs ~shared_size ~count:64
  in
  (* ten hot programs in that mix, resubmitted verbatim by the stated
     share of submissions; the rest are one-off programs *)
  let hot = Array.init 10 program in
  let nhot = submissions * hot_share_pct / 100 in
  let hot_pick = balanced st nhot (Array.length hot) in
  let kinds = balanced st (submissions - nhot) 10 in
  let is_hot = shuffle st (Array.init submissions (fun i -> i < nhot)) in
  let nh = ref 0 and nk = ref 0 in
  let subs =
    Array.init submissions (fun i ->
        let prog =
          if is_hot.(i) then (incr nh; hot.(hot_pick.(!nh - 1)))
          else (incr nk; program kinds.(!nk - 1))
        in
        let writes =
          Array.fold_left
            (fun n p -> match p with P_write _ -> n + 1 | _ -> n)
            0 prog.pops
        in
        { prog; data = Array.init writes (fun _ -> cut st ar rs) })
  in
  let chunk = 65_536 in
  let init_writes =
    Array.init
      ((Bytes.length init + chunk - 1) / chunk)
      (fun i -> Bytes.sub init (i * chunk) (min chunk (Bytes.length init - (i * chunk))))
  in
  { rec_size = rs; fd; shared_size; init; init_writes; store = Bytes.copy init; subs }
