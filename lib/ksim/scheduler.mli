(** Round-robin preemptive scheduler over N simulated CPUs.

    The simulation executes workloads as OCaml code, so preemption is
    realized at explicit checkpoints: long-running kernel paths (notably
    the Cosy interpreter's loop back-edges) call {!checkpoint}.  When the
    current process has run past its timeslice, a context switch is
    charged and the runqueue rotates — this is what gives Cosy's watchdog
    its teeth (paper §2.3).

    SMP model: execution stays serialized, but each CPU carries a local
    clock of the wall time it has notionally consumed in parallel.  A
    driver runs slices of work under {!run_on}; the global clock delta of
    each slice is credited to that CPU's local clock, and {!makespan}
    (the busiest CPU) is the elapsed time of the parallel run.
    {!Spinlock} compares local clocks across CPUs to decide whether a
    lock was still held when another CPU reached it. *)

type t

(** [stats] receives the [sched.*] context-switch / preemption / spawn
    counters; defaults to a fresh registry.  [ncpus] defaults to 1 (the
    pre-SMP behaviour, bit-for-bit). *)
val create :
  ?stats:Kstats.t -> ?ncpus:int -> clock:Sim_clock.t -> cost:Cost_model.t ->
  unit -> t

val ncpus : t -> int

(** CPU whose work the serialized simulation is currently executing
    (0 outside any {!run_on}). *)
val active_cpu : t -> int

(** Wire the kperf tracer so context switches emit trace instants
    (called by [Kernel.create]; emission is a no-op while the tracer is
    disabled). *)
val set_perf : t -> Kperf.t -> unit

(** Create a process and append it to a runqueue; the first process on a
    CPU becomes that CPU's current.  Without [cpu] the least-loaded CPU
    is chosen. *)
val spawn : ?cpu:int -> t -> name:string -> Kproc.t

exception No_current_process

(** The running process on the active CPU.  @raise No_current_process
    when none exists (never the case for a kernel created through
    {!Kernel.create}). *)
val current : t -> Kproc.t

(** Make [p] the running process on its CPU, demoting the previous
    current to ready.  Used by SMP drivers to interleave workload
    processes. *)
val activate : t -> Kproc.t -> unit

(** Force a context switch on the active CPU: charges the switch cost
    and rotates that CPU's runqueue. *)
val context_switch : t -> unit

(** Preemption point: if the current timeslice on the active CPU is
    exhausted, count a preemption and switch. *)
val checkpoint : t -> unit

(** Terminate a process.  If it was the last one anywhere, a fresh
    [init] is spawned so the machine always runs something. *)
val kill : t -> Kproc.t -> unit

(** [run_on t ~cpu f] runs [f] as a slice of [cpu]'s work: the global
    clock delta it produces is credited to that CPU's local clock.
    Restores the previously active CPU on exit (also on exception). *)
val run_on : t -> cpu:int -> (unit -> 'a) -> 'a

(** Local wall time of the active CPU.  Outside {!run_on} this is just
    the global clock, so single-CPU runs are unaffected. *)
val local_now : t -> int

(** Accumulated local wall time of [cpu] (completed {!run_on} slices). *)
val cpu_time : t -> int -> int

(** Elapsed time of the parallel run: the busiest CPU's local clock. *)
val makespan : t -> int

(** Preemptions so far (the [sched.preemptions] counter). *)
val preemptions : t -> int
val process_count : t -> int
