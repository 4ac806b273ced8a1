(* The system: a kernel plus a VFS plus syscall bookkeeping.  User
   wrappers (Usyscall) cross the boundary and call the in-kernel service
   routines (Sys_file); the Cosy kernel extension calls the service
   routines directly, skipping the crossing — which is the entire point
   of the paper's §2. *)

type trace_record = {
  pid : int;
  sysno : Sysno.t;          (* which syscall *)
  arg : string;             (* human-readable principal argument *)
  bytes_in : int;           (* user -> kernel *)
  bytes_out : int;          (* kernel -> user *)
  ok : bool;
  timestamp : int;          (* virtual cycles at completion *)
}

(* What the admission gate (kverify's syscall-flow automaton) decided
   about one dispatch.  [Gate_kill] means the caller must terminate the
   offending process, watchdog-style. *)
type gate_decision =
  | Gate_allow
  | Gate_deny of Kvfs.Vtypes.errno
  | Gate_kill

type gate = pid:int -> sysno:Sysno.t -> gate_decision

type t = {
  kernel : Ksim.Kernel.t;
  vfs : Kvfs.Vfs.t;
  net : Knet.t;
  mutable tracer : (trace_record -> unit) option;
  (* the (single) dispatch-admission hook; [None] costs one branch *)
  mutable gate : gate option;
  (* kstats handles, indexed by [Sysno.to_int] and lazily registered on
     a syscall's first use *)
  st_counters : Kstats.counter option array;
  st_hists : Kstats.hist option array;
  st_total : Kstats.counter;
  (* boundary fault sites + the EINTR-restart retry counter *)
  fault : Kfault.t;
  site_eintr : Kfault.site;
  site_eagain : Kfault.site;
  st_eintr_restarts : Kstats.counter;
  st_eagain_injected : Kstats.counter;
  mutable eagain_streak : int;  (* consecutive injected EAGAINs *)
}

let n_sysnos = List.length Sysno.all

let create ?root_fs ?dcache_shards kernel =
  let vfs = Kvfs.Vfs.create ?root_fs ?dcache_shards kernel in
  {
    kernel;
    vfs;
    net = Knet.create kernel;
    tracer = None;
    gate = None;
    st_counters = Array.make n_sysnos None;
    st_hists = Array.make n_sysnos None;
    st_total = Kstats.counter (Ksim.Kernel.stats kernel) "syscall.total";
    fault = Ksim.Kernel.fault kernel;
    site_eintr = Kfault.register (Ksim.Kernel.fault kernel) "syscall.eintr";
    site_eagain = Kfault.register (Ksim.Kernel.fault kernel) "syscall.eagain";
    st_eintr_restarts =
      Kstats.counter (Ksim.Kernel.stats kernel) "retry.eintr_restarts";
    st_eagain_injected =
      Kstats.counter (Ksim.Kernel.stats kernel) "retry.eagain_injected";
    eagain_streak = 0;
  }

let kernel t = t.kernel
let fault t = t.fault
let eintr_site t = t.site_eintr

let count_eintr_restart t = Kstats.incr t.st_eintr_restarts

(* The EAGAIN budget: after this many injected EAGAINs in a row, the
   next call is let through without consulting the site, so a plan that
   fires on every call cannot starve a readiness loop forever. *)
let eagain_budget = 8

let inject_eagain t =
  if t.eagain_streak >= eagain_budget then begin
    t.eagain_streak <- 0;
    false
  end
  else if Kfault.fire t.fault t.site_eagain then begin
    t.eagain_streak <- t.eagain_streak + 1;
    Kstats.incr t.st_eagain_injected;
    true
  end
  else begin
    t.eagain_streak <- 0;
    false
  end

let vfs t = t.vfs
let net t = t.net

let set_tracer t f = t.tracer <- Some f
let clear_tracer t = t.tracer <- None

let set_gate t g = t.gate <- Some g
let clear_gate t = t.gate <- None
let gate t = t.gate

(* Handle caches keep the hot path at one array load; registration
   happens on a syscall's first use, so the registry lists syscalls in
   the order they were first made.  The kstats metric names keep the
   historical [syscall.<name>.*] strings. *)
let cached tbl register t sysno suffix =
  let i = Sysno.to_int sysno in
  match tbl.(i) with
  | Some h -> h
  | None ->
      let h =
        register (Ksim.Kernel.stats t.kernel)
          ("syscall." ^ Sysno.to_string sysno ^ suffix)
      in
      tbl.(i) <- Some h;
      h

let st_counter t sysno = cached t.st_counters Kstats.counter t sysno ".count"
let st_hist t sysno = cached t.st_hists Kstats.histogram t sysno ".latency"

(* Record one completed syscall's wall latency (cycles from user-stub
   entry to boundary exit) into the per-syscall histogram. *)
let observe_latency t ~sysno ~cycles =
  let stats = Ksim.Kernel.stats t.kernel in
  if Kstats.is_enabled stats then Kstats.observe stats (st_hist t sysno) cycles

let record t ~sysno ~arg ~bytes_in ~bytes_out ~ok =
  Kstats.incr t.st_total;
  Kstats.incr (st_counter t sysno);
  match t.tracer with
  | None -> ()
  | Some f ->
      let p = Ksim.Kernel.current t.kernel in
      f
        {
          pid = p.Ksim.Kproc.pid;
          sysno;
          arg;
          bytes_in;
          bytes_out;
          ok;
          timestamp = Ksim.Kernel.now t.kernel;
        }

(* Reading never registers: an unused syscall has no counter yet. *)
let count t sysno =
  Option.fold ~none:0 ~some:Kstats.counter_value
    t.st_counters.(Sysno.to_int sysno)

let total_syscalls t = Kstats.counter_value t.st_total
