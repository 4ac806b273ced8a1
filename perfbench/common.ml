(* What every workload shares: the per-repeat result, snapshots of the
   layers' public counters around the measured phase, host timing, and
   the traced syscall wrappers. *)

module U = Ksyscall.Usyscall
module K = Ksim.Kernel

(* One repeat of a workload: boot, set-up, measured phase, checks. *)
type repeat = {
  ops : int;  (** ops completed in the measured phase *)
  failed : int;  (** ops that errored or disagreed with the reference *)
  notes : string list;  (** why ops failed *)
  broken : string list;  (** design assumptions the run did not meet *)
  boot_s : float;  (** host CPU seconds inside [Core.boot_with] *)
  setup_s : float;  (** host CPU seconds: boot plus the initial state *)
  phase_s : float;  (** host CPU seconds of the measured phase *)
  phase_words : float;  (** OCaml words allocated in the measured phase *)
  major_gcs : int;  (** major collections during the measured phase *)
  sim_cycles : int;  (** simulated cycles of the measured phase *)
  lat : int array;  (** per-op simulated latency (cycles); empty for web *)
  lat_mean_cycles : float;
  recovery_cycles : int;  (** journal: simulated downtime of the reboot *)
  reboot_s : float;  (** journal: host CPU seconds inside [Core.reboot] *)
  sim : (string * float) list;  (** simulated per-layer values *)
  fingerprint : string;  (** every simulated number of the repeat *)
}

let cpu_s () = Sys.time ()

let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let cycles_to_us c = c /. Ksim.Sim_clock.hz *. 1e6

(* ---- boot ------------------------------------------------------------- *)

let sp_boot = Span.intern "core.boot_with"

(* [Core.boot_with] with kstats on; returns the system and the host CPU
   seconds it took. *)
let boot cfg =
  Kstats.default_enabled := true;
  let w0 = if !Span.enabled then Span.words () else 0 in
  let c0 = cpu_s () in
  let h0 = Span.now_ns () in
  let t = Core.boot_with cfg in
  let boot_s = cpu_s () -. c0 in
  Span.add_closed (Core.kernel t) sp_boot ~h0 ~w0;
  (t, boot_s)

(* ---- traced syscall wrappers ----------------------------------------- *)

let sp_open = Span.intern "ksyscall.sys_open"
let sp_close = Span.intern "ksyscall.sys_close"
let sp_read = Span.intern "ksyscall.sys_read"
let sp_write = Span.intern "ksyscall.sys_write"
let sp_fstat = Span.intern "ksyscall.sys_fstat"
let sp_unlink = Span.intern "ksyscall.sys_unlink"
let sp_mkdir = Span.intern "ksyscall.sys_mkdir"
let sp_readdir = Span.intern "ksyscall.sys_readdir"
let sp_owc = Span.intern "ksyscall.sys_open_write_close"

let kern sys = Ksyscall.Systable.kernel sys

let sys_open sys ~path ~flags =
  let s = Span.enter (kern sys) sp_open in
  let r = U.sys_open sys ~path ~flags in
  Span.leave (kern sys) s;
  r

let sys_close sys ~fd =
  let s = Span.enter (kern sys) sp_close in
  let r = U.sys_close sys ~fd in
  Span.leave (kern sys) s;
  r

let sys_read sys ~fd ~len =
  let s = Span.enter (kern sys) sp_read in
  let r = U.sys_read sys ~fd ~len in
  Span.leave (kern sys) s;
  r

let sys_write sys ~fd ~data =
  let s = Span.enter (kern sys) sp_write in
  let r = U.sys_write sys ~fd ~data in
  Span.leave (kern sys) s;
  r

let sys_fstat sys ~fd =
  let s = Span.enter (kern sys) sp_fstat in
  let r = U.sys_fstat sys ~fd in
  Span.leave (kern sys) s;
  r

let sys_unlink sys ~path =
  let s = Span.enter (kern sys) sp_unlink in
  let r = U.sys_unlink sys ~path in
  Span.leave (kern sys) s;
  r

let sys_mkdir sys ~path =
  let s = Span.enter (kern sys) sp_mkdir in
  let r = U.sys_mkdir sys ~path in
  Span.leave (kern sys) s;
  r

let sys_readdir sys ~path =
  let s = Span.enter (kern sys) sp_readdir in
  let r = U.sys_readdir sys ~path in
  Span.leave (kern sys) s;
  r

let sys_open_write_close sys ~path ~data ~flags =
  let s = Span.enter (kern sys) sp_owc in
  let r = U.sys_open_write_close sys ~path ~data ~flags in
  Span.leave (kern sys) s;
  r

(* Read a whole file back: open, fstat, read, close. *)
let read_file sys path =
  match sys_open sys ~path ~flags:Core.o_rdonly with
  | Error e -> Error e
  | Ok fd -> (
      let r =
        match sys_fstat sys ~fd with
        | Error e -> Error e
        | Ok st -> sys_read sys ~fd ~len:st.Kvfs.Vtypes.st_size
      in
      match sys_close sys ~fd with Ok () -> r | Error e -> Error e)

(* ---- snapshots of the layers' public counters ------------------------ *)

type snap = {
  kst : (string, Kstats.view) Hashtbl.t;
  now : int;
  crossings : int;
  copied : int;  (** [Kernel.bytes_from_user + bytes_to_user] *)
  utime : int;
  stime : int;
  io_wait : int;
  minic_steps : int;
  wal_records : int;
}

(* Copied bytes come from the kernel accessors: the syscall layer's
   charge-only copy path never bumps the [kernel.bytes_*] kstats
   counters, so those read 0 for every [Usyscall] call. *)
let snap t =
  let k = Core.kernel t in
  let kst = Hashtbl.create 128 in
  List.iter (fun (n, v) -> Hashtbl.replace kst n v) (Kstats.dump (Core.stats t));
  let p = K.current k in
  let js = Option.map Kvfs.Journalfs.stats (Core.journalfs t) in
  {
    kst;
    now = K.now k;
    crossings = K.crossings k;
    copied = K.bytes_from_user k + K.bytes_to_user k;
    utime = p.Ksim.Kproc.utime;
    stime = p.Ksim.Kproc.stime;
    io_wait = p.Ksim.Kproc.io_wait;
    minic_steps =
      (match js with Some s -> s.Kvfs.Journalfs.interp_steps | None -> 0);
    wal_records =
      (match js with Some s -> s.Kvfs.Journalfs.journal_records | None -> 0);
  }

let counter s name =
  match Hashtbl.find_opt s.kst name with
  | Some (Kstats.Counter_v v) -> v
  | _ -> 0

let hist s name =
  match Hashtbl.find_opt s.kst name with
  | Some (Kstats.Hist_v h) -> (h.Kstats.v_count, h.Kstats.v_sum)
  | _ -> (0, 0)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The simulated per-layer values every workload reports, from the
   counters' change over the measured phase. *)
let layer_values ~ops (a : snap) (b : snap) =
  let d name = counter b name - counter a name in
  let elapsed = b.now - a.now in
  let per x = ratio x ops in
  let share x = ratio x elapsed in
  let dh name =
    let c1, s1 = hist b name and c0, s0 = hist a name in
    (c1 - c0, s1 - s0)
  in
  let bn, bs = dh "ring.batch.size" in
  (* the server is idle while blocked in epoll_wait; its I/O wait is not
     idleness, since sendfile charges the page-cache-to-NIC DMA there *)
  let _, epoll_cycles = dh "syscall.epoll_wait.latency" in
  [
    ("ksyscall.syscalls_per_op", per (d "syscall.total"));
    ("ksyscall.crossings_per_op", per (b.crossings - a.crossings));
    ("ksyscall.copied_bytes_per_op", per (b.copied - a.copied));
    ("kvfs.dcache_hit_ratio", ratio (d "dcache.hits") (d "dcache.hits" + d "dcache.misses"));
    ("kvfs.blockdev_reads_per_op", per (d "blockdev.reads"));
    ("kvfs.blockdev_writes_per_op", per (d "blockdev.writes"));
    ( "kvfs.blockdev_hit_ratio",
      ratio (d "blockdev.cache_hits") (d "blockdev.cache_hits" + d "blockdev.cache_misses") );
    ("kvfs.blockdev_evictions", float_of_int (d "blockdev.evictions"));
    ("kvfs.io_wait_share", share (b.io_wait - a.io_wait));
    ("minic.steps_per_op", per (b.minic_steps - a.minic_steps));
    ("kcrash.wal_records_per_op", per (b.wal_records - a.wal_records));
    ("knet.backlog_drops", float_of_int (d "net.backlog_drops"));
    ("knet.epoll_waits_per_op", per (d "net.epoll.waits"));
    ("knet.bytes_out_per_op", per (d "net.bytes_out"));
    ("knet.server_idle_share", share epoll_cycles);
    ("knet.sendq_full", float_of_int (d "net.sendq_full"));
    ("kring.enters_per_op", per (d "ring.enters"));
    ("kring.batch_size_mean", ratio bs bn);
    ("kring.crossings_saved_per_op", per (d "ring.crossings_saved"));
    ("kverify.watchdog_elided_per_op", per (d "kverify.watchdog_elided"));
    ("kverify.violations", float_of_int (d "kverify.violations"));
    ( "kopt.cache_hit_ratio",
      ratio (d "kopt.cache.hits") (d "kopt.cache.hits" + d "kopt.cache.misses") );
    ("kopt.compiles", float_of_int (d "kopt.cache.compiles"));
    ("kopt.ring_cq_bytes_saved_per_op", per (d "ring.opt.cq_bytes_saved"));
    ("kopt.ring_fused_pairs", float_of_int (d "ring.opt.fused_pairs"));
    ("cosy.ops_per_submit", ratio (d "cosy.ops_executed") (d "cosy.submits"));
    ( "cosy.shared_bytes_per_op",
      per (d "cosy.shared.bytes_read" + d "cosy.shared.bytes_written") );
    ("ksim.user_share", share (b.utime - a.utime));
    ("ksim.kernel_share", share (b.stime - a.stime));
    ("ksim.context_switches_per_op", per (d "sched.context_switches"));
  ]

(* ---- the measured phase ----------------------------------------------- *)

type phase = {
  ph_s : float;
  ph_words : float;
  ph_majors : int;
  ph_before : snap;
  ph_after : snap;
}

(* Run [f] as the measured phase: counters are read outside the host
   timers so reading them is not part of what is measured.  [f] returns
   the words the benchmark's own output checks allocated inside the
   phase, which are not the program's. *)
let measure t f =
  let before = snap t in
  Gc.full_major ();
  let m0 = major_collections () in
  let w0 = gc_words () in
  let c0 = cpu_s () in
  let check_words = f () in
  let c1 = cpu_s () in
  let m1 = major_collections () in
  (* the runtime folds a cycle's major allocations into its totals only
     when the cycle ends: finish it, so the count repeats exactly *)
  Gc.full_major ();
  let w1 = gc_words () in
  let after = snap t in
  { ph_s = c1 -. c0; ph_words = w1 -. w0 -. check_words; ph_majors = m1 - m0;
    ph_before = before; ph_after = after }

(* Every simulated number of a repeat, folded into one digest: the whole
   kstats registry of each system it booted, the per-op latencies and
   the benchmark's own readings. *)
let fingerprint ?(lat = [||]) systems extra =
  let b = Buffer.create 4096 in
  List.iter (fun t -> Kstats.buffer_json b (Core.stats t)) systems;
  Array.iter (fun c -> Printf.bprintf b ",%d" c) lat;
  List.iter (fun (n, v) -> Printf.bprintf b ";%s=%.17g" n v) extra;
  Digest.to_hex (Digest.string (Buffer.contents b))
