(** kverify: admission before execution.

    Two complementary static protections behind one subsystem handle:

    - {b Syscall-flow integrity} (after SFIP): a {!Sfi} automaton
      compiled from a recorded {!Ktrace.Syscall_graph} is installed as
      the {!Ksyscall.Systable} gate, so every dispatch — plain, ring,
      compound, or consolidated — pays one table probe to prove the
      transition was seen during recording.  Violations hit the
      configured {!policy}.
    - {b Static admission} ({!Checker}): compounds and ring batches that
      verify before execution run on the watchdog-elided fast path;
      anything unprovable falls back bit-for-bit.

    Observability: [kverify.checked] / [kverify.violations] /
    [kverify.watchdog_elided] kstats, a kperf instant per violation, and
    an [Instrument.Sfi_violation] event ([obj] = attempted sysno,
    [value] = previous sysno or -1) on the kmonitor stream. *)

module Sfi = Sfi
module Checker = Checker

(** Alias of {!Ksyscall.Usyscall.Flow_violation}: raised out of the
    dispatch paths when the gate kills the offender. *)
exception Flow_violation of { pid : int; sysno : Ksyscall.Sysno.t }

(** What happens to a syscall whose flow transition was never
    recorded. *)
type policy =
  | Kill  (** terminate the offending process (default) *)
  | Deny  (** fail the syscall with [EPERM]; the process survives *)
  | Log   (** count + emit the violation, let the syscall through *)

type t

val create : ?policy:policy -> Ksim.Kernel.t -> t
val policy : t -> policy

(** The automaton to enforce; [None] (the default) allows everything. *)
val set_automaton : t -> Sfi.t option -> unit

val automaton : t -> Sfi.t option

(** Compile an automaton from a recorded trace. *)
val learn : Ktrace.Recorder.t -> Sfi.t

(** Install/remove this instance as the dispatch gate.  With no
    automaton set the gate allows everything but still sits on the
    path; prefer not installing at all for a true zero-cost off
    state. *)
val install : t -> Ksyscall.Systable.t -> unit

val uninstall : t -> Ksyscall.Systable.t -> unit

(** {1 Static admission} — both verifiers charge
    [Cost_model.verify_admit_op] per op/request and bump
    [kverify.watchdog_elided] on success. *)

(** Install the compound checker as a Cosy extension's admission hook
    ([Cosy_exec.set_admission]): verified compounds run [Verified],
    the rest [Dynamic].  Replaces any hook already installed. *)
val attach_cosy : t -> Cosy.Cosy_exec.t -> unit

(** Batch verifier behind a kring's admission hook ([Core.ring] and
    [Kopt.ring_plan] both call it). *)
val ring_verifier : t -> Ksyscall.Syscall.req list -> bool

(** Compound verifier with an explicit shared-buffer bound (what
    {!attach_cosy} installs). *)
val compound_verifier : t -> shared_size:int -> Cosy.Compound.t -> bool

(** Like {!compound_verifier} (same admission charges and counters) but
    returning the full {!Checker.verdict}, whose [Verified] payload
    carries the analysis facts (proven counted loops) the kopt
    optimizer compiles against. *)
val compound_verdict :
  t -> shared_size:int -> Cosy.Compound.t -> Checker.verdict

(** {1 Counters} (read from the [kverify.*] kstats counters) *)

val checked : t -> int

val violations : t -> int

val watchdog_elided : t -> int
