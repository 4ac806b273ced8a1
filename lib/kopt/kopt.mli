(** kopt: optimizing admitted programs.

    An optimization pass that runs after {!Kverify} admits a Cosy
    compound or kring batch, compiling it into a specialized internal
    program:

    - {b fd-resolution caching}: each distinct descriptor value is
      resolved (and charged) once per execution; [close] evicts.
    - {b copy coalescing}: adjacent transfers on contiguous
      shared-buffer ranges become single bulk copies.
    - {b op fusion}: read→write (compound) and recv→send (ring) pairs
      dispatch splice-style under one charge.
    - {b loop-invariant hoisting}: ops inside counted loops the checker
      proved bounded run at the hoisted per-op rate, after a one-time
      per-loop preamble charge.

    Compiled programs land in a per-process cache keyed by a structural
    hash of the compound's wire bytes ([kopt.cache.hits] /
    [kopt.cache.misses] / [kopt.cache.compiles] kstats); repeat
    submissions skip decode, admission, and compilation entirely.

    Invariant: optimized execution is observably identical to the
    interpreter — same results, shared-buffer contents, errno sequences
    and fd-table end state — only cycle/crossing/copy accounting may
    improve.  Anything the checker rejects falls back to the dynamic
    path bit-for-bit. *)

module Plan = Plan

type t

(** [create ?cache_capacity kv sys] builds an optimizer bound to the
    kernel behind [sys], running admission through [kv].
    [cache_capacity] bounds the compiled-program cache (default 64,
    FIFO eviction). *)
val create : ?cache_capacity:int -> Kverify.t -> Ksyscall.Systable.t -> t

(** Install this optimizer as a Cosy extension's admission hook
    ([Cosy_exec.set_admission]), replacing any hook already there (such
    as [Kverify.attach_cosy]'s): the optimizer runs kverify admission
    itself with identical charges, so admission is charged once. *)
val attach : t -> Cosy.Cosy_exec.t -> unit

(** Install this optimizer as a kring's admission hook
    ([Kring.set_admission]), replacing any hook already there: admitted
    batches drain with recv→send pairs fused and the completion-region
    copy-out coalesced away. *)
val attach_ring : t -> Kring.t -> unit

(** The ring-batch half of the optimizer, exposed for direct use:
    admission (with charges) plus the batch plan, or [None] if the
    batch did not verify. *)
val ring_plan : t -> Ksyscall.Syscall.req list -> Kring.plan option

(** Probe the cache / admit / compile one compound.  Charges
    [kopt_cache_probe] always, admission + [kopt_compile_op] per op on a
    miss that verifies.  [None] means the compound was rejected — the
    caller should fall back to the dynamic path.  Exposed for tests and
    tools; {!attach} wires it into submit. *)
val try_plan : t -> shared_size:int -> Cosy.Compound.t -> Plan.t option

(** {1 Counters} (the cache counters read [kopt.cache.*] kstats) *)

val hits : t -> int

val misses : t -> int

val compiles : t -> int

(** Distinct fd resolutions charged across executions. *)
val fd_resolved : t -> int

(** fd uses answered by the per-execution resolution cache. *)
val fd_reused : t -> int

val cache_size : t -> int
