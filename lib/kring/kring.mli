(** io_uring-style batched syscall submission (after AnyCall): typed
    {!Ksyscall.Syscall.req}s are marshalled into a submission queue
    backed by the Cosy shared buffer, one [sys_ring_enter] crossing
    drains the queue in kernel mode through the ordinary service
    routines under the Cosy preemption watchdog, and replies are reaped
    from the completion queue without a crossing.

    A batch of N costs the one-time setup crossing plus one crossing
    per [enter], one copy-in of the packed requests and one copy-out of
    the packed replies — versus N crossings and N copy round-trips for
    the synchronous dispatcher. *)

(** One completed operation. *)
type completion = {
  seq : int;    (** submission order, ring-wide *)
  sysno : Ksyscall.Sysno.t;
  reply : Ksyscall.Syscall.reply;
}

type t

(** [create sys] maps the rings: one boundary crossing (the
    [sys_ring_setup] analogue), after which submission and reaping are
    crossing-free.  [sq_entries] bounds the submission queue (default
    64), [cq_entries] the completion queue (default [2 * sq_entries]),
    [shared_size] the SQ backing store, [policy] the watchdog applied
    while draining (defaults to the Cosy default policy). *)
val create :
  ?sq_entries:int ->
  ?cq_entries:int ->
  ?shared_size:int ->
  ?policy:Cosy.Cosy_safety.policy ->
  Ksyscall.Systable.t ->
  t

(** Queue one request without crossing; [Error `Sq_full] is the
    backpressure signal (entry cap or backing store exhausted) — drain
    with {!enter} and retry.  Returns the completion sequence number. *)
val push : t -> Ksyscall.Syscall.req -> (int, [ `Sq_full ]) result

(** Drain the submission queue in one crossing; returns the number of
    completions produced (0 if the SQ was empty — no crossing then).
    Stops early if the CQ fills.  @raise Cosy.Cosy_safety.Watchdog_expired
    when a pathological batch exceeds the kernel-time budget; the
    offending process is killed, completions already produced survive. *)
val enter : t -> int

(** Reap the oldest completion (user mode, no crossing). *)
val reap : t -> completion option

(** Reap everything currently in the CQ, oldest first. *)
val reap_all : t -> completion list

(** Push all requests (draining whenever the SQ fills), [enter], and
    reap: completions for every request, in submission order. *)
val run_batch : t -> Ksyscall.Syscall.req list -> completion list

(** An admission hook's decision about an admitted batch.  Plain
    kverify admission returns [{ fuse_next = [||]; coalesce_cq = false }];
    the kopt planner fills both fields in. *)
type plan = {
  fuse_next : bool array;
      (** [fuse_next.(i)]: batch position [i] starts a splice-style pair
          (recv→send on one socket) — both entries drain under a single
          [kopt_fused_op] dispatch charge instead of two
          [ring_verified_op]s.  Replies, completions, and per-request
          trace records are unchanged. *)
  coalesce_cq : bool;
      (** treat the completion region as shared-mapped: elide the
          batch-end reply copy-out; saved bytes land in
          [ring.opt.cq_bytes_saved] instead of the copy counters. *)
}

(** Install/remove the admission hook: the ring's one safety decision
    per batch ([Core.ring] installs kverify's, [Kopt.attach_ring] kopt's,
    and the last install wins).  {!enter} hands it the decoded
    queued requests before executing any of them; the hook charges its
    own admission costs.  A batch that gets [Some plan] drains on the
    cheap parse-in-place path (no per-entry copy_from_user,
    [ring_verified_op] instead of a decode, watchdog elided — preemption
    checkpoints still run) with [plan] applied; [None] falls back to
    today's watchdog path bit-for-bit.  [None] as the hook (the default)
    disables admission entirely. *)
val set_admission :
  t -> (Ksyscall.Syscall.req list -> plan option) option -> unit

(** Batches admitted on the watchdog-elided path so far. *)
val watchdog_elisions : t -> int

(** Fused recv→send pairs drained so far. *)
val fused_pairs : t -> int

(** Reply bytes whose copy-out was elided by CQ coalescing. *)
val cq_bytes_saved : t -> int

val sq_depth : t -> int
val cq_depth : t -> int

(** Crash containment: drop everything still queued in both rings (a
    dying process's in-flight batch state); returns the number of
    entries discarded.  Host-level bookkeeping only — no cycles. *)
val discard_pending : t -> int
val sq_entries : t -> int
val cq_entries : t -> int
val shared : t -> Cosy.Shared_buffer.t
