(** The Cosy kernel extension (§2.3).

    [submit] crosses the boundary once, decodes the compound (charging
    per-op decode cost), and executes the operations in kernel mode.
    Syscall ops dispatch to the same in-kernel service routines ordinary
    syscalls use, so every permission check still runs — only crossings
    and copies disappear.  Loop back-edges hit the scheduler's preemption
    checkpoint and the watchdog; [Call_user] ops run mini-C functions
    under the active {!Cosy_safety} protection mode. *)

exception Exec_error of string

type t

(** [create ?shared_size ?policy ?user_program sys] builds an extension
    bound to [sys].  [user_program] is mini-C source providing the
    functions [Call_user] ops may invoke. *)
val create :
  ?shared_size:int ->
  ?policy:Cosy_safety.policy ->
  ?user_program:string ->
  Ksyscall.Systable.t ->
  t

(** The zero-copy shared buffer (visible to both "sides"). *)
val shared : t -> Shared_buffer.t

val safety : t -> Cosy_safety.t

(** An admission hook's decision about one compound. *)
type admission =
  | Dynamic
      (** run under the back-edge watchdog, today's path bit-for-bit *)
  | Verified
      (** run on the cheaper [cosy_exec_op_verified] cost with the
          watchdog elided (its loops were proven bounded at admission —
          the preemption checkpoint still runs) *)
  | Compiled of (unit -> int array * int * int)
      (** admitted and compiled (or found in a compiled-program cache):
          the thunk executes the specialized program and returns the
          final register file plus the logical op and back-edge counts
          it performed, which [submit] folds into the extension's
          counters *)

(** Install/remove the admission hook: the extension's one safety
    decision per compound ([Kverify.attach_cosy] and [Kopt.attach]
    each install one, and the last install wins).  [submit] calls it
    once per compound inside the kernel stay, after the safety watchdog
    is armed; the hook charges its own admission costs.  [None] (the
    default) runs every compound [Dynamic]. *)
val set_admission : t -> (Compound.t -> admission) option -> unit

(** Compounds admitted on the watchdog-elided path so far. *)
val watchdog_elisions : t -> int

(** {1 Interpreter internals exposed for the kopt plan executor} *)

(** Resolve an integer operand against the register file.
    @raise Exec_error on out-of-range slots or string immediates. *)
val int_arg : int array -> Cosy_op.arg -> int

(** [exec_syscall t slots sysno args] lowers one syscall op to a typed
    request, dispatches it through the same in-kernel service path
    [submit] uses (gate, service routine, kperf span, shared-buffer
    deposit), and returns the C-style return value. *)
val exec_syscall : t -> int array -> int -> Cosy_op.arg list -> int

(** Execute a compound; returns the final register file.
    @raise Exec_error on malformed compounds,
    @raise Cosy_safety.Watchdog_expired when the kernel-time budget is
    exhausted (the offending process is killed first),
    @raise Ksyscall.Usyscall.Flow_violation when the syscall-flow gate
    kills the offender mid-compound (same cleanup as the watchdog),
    @raise Ksim.Fault.Fault when an isolated user function escapes its
    segment.  Kernel mode is always exited before raising. *)
val submit : t -> Compound.t -> int array

type stats = {
  submits : int;
  ops_executed : int;
  backedges : int;
  user_calls : int;
  watchdog_kills : int;
  segment_loads : int;
}

val stats : t -> stats
