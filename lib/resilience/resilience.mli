(** The systematic resilience sweep (FATE-style).

    One standard workload — file tree, direct vmalloc, optimized and
    plain Cosy compounds, a submission ring, the knet webserver — boots
    a fresh system and reaches every fault site kfault registers.  The
    sweep runs it once in counting mode to learn how often each site is
    reached, then once per (site, occurrence) under a {!Kfault.One_shot}
    plan, classifying each run against the fault-free baseline:

    - {e Identical}: payload digest matches the baseline and no error
      surfaced — the fault was absorbed transparently (a reread block,
      a retransmitted frame, a restarted syscall).
    - {e Degraded}: the run failed {e cleanly} — every surfaced error
      is a typed errno (or a watchdog kill), nothing escaped.
    - {e Violation}: an unexpected exception escaped the workload, or
      the payload silently changed with no error surfaced.

    A correct kernel sweeps with zero violations; [bin/kfault_tool.exe
    sweep] exits nonzero otherwise. *)

(** One run of the standard workload. *)
type run_result = {
  r_cycles : int;  (** simulated clock at the end of the run *)
  r_digest : string;  (** hex digest over every payload byte observed *)
  r_errs : string list;
      (** clean failures, in order, as ["phase:ERRNO"] strings *)
  r_killed : int;  (** watchdog / flow-gate kills (clean by definition) *)
  r_escaped : string option;  (** exception that escaped a phase — a violation *)
  r_counts : (string * int * int) list;
      (** per-site (name, occurrences, fires) from the engine *)
  r_stats : string;  (** rendered kstats report, for identity checks *)
}

(** Run the standard workload on a fresh system under [plans]
    (default: empty = counting mode).  Never raises: anything a phase
    throws beyond clean errnos/kills lands in [r_escaped]. *)
val run : ?plans:Kfault.plan list -> unit -> run_result

(** The boot config {!run} uses: wrapfs-kmalloc, optimizer on. *)
val default_run_config : Core.Config.t

(** The standard workload on an already-booted system, leaving its
    fault engine as it is (a never-armed engine stays disarmed).  Turns
    the system's kstats histograms on. *)
val run_on : Core.t -> run_result

(** {!run} with an explicit boot config, returning the booted system
    too (for reboot-from-image probes and containment-overhead
    comparisons).  [config] defaults to {!default_run_config}. *)
val run_with :
  ?plans:Kfault.plan list ->
  ?config:Core.Config.t ->
  unit ->
  run_result * Core.t

(** The boot config the crash sweep uses: durable journalfs (write-ahead
    logging, replay-on-mount) with kcrash oops containment installed. *)
val crash_config : Core.Config.t

(** Recorded in [r_escaped] when the armed crash point kills the run. *)
val power_loss_marker : string

type outcome = Identical | Degraded | Violation

val outcome_to_string : outcome -> string

(** [classify ~baseline r] applies the sweep invariants. *)
val classify : baseline:run_result -> run_result -> outcome * string

type sweep_row = {
  sw_site : string;
  sw_occurrence : int;
  sw_outcome : outcome;
  sw_errs : string list;
  sw_detail : string;  (** escaped exception / mismatch explanation *)
}

type sweep_result = {
  baseline : run_result;
  rows : sweep_row list;
  violations : int;
}

(** Run the whole sweep: baseline in counting mode, then one run per
    (site, occurrence) point — every occurrence of every reached site,
    or an evenly spaced sample of [max_per_site] per site.  [progress]
    is called before each injection run with (index, total, site,
    occurrence). *)
val sweep :
  ?max_per_site:int ->
  ?progress:(int -> int -> string -> int -> unit) ->
  unit ->
  sweep_result

(** {1 The crash-point sweep (E19)}

    Power loss, systematically: the standard workload runs on the
    {!crash_config} system with the [blockdev.crash_point] kfault site
    armed [One_shot] at every durable-write boundary the workload
    crosses — one run per crash point, as the fault sweep does for
    fault points.  When the point fires, the machine dies mid-write
    ([Power_loss]); the sweep reboots from the persistent device image
    alone and judges the survivor:

    - {e Consistent}: fsck clean, replay idempotent, whole log — every
      committed operation survived, nothing needed discarding.
    - {e Recovered}: fsck clean, replay idempotent, and the replay
      discarded a torn tail (an intent with neither commit nor abort) —
      the crash landed inside an operation, which atomically vanished.
    - {e Corrupt}: fsck errors, replay errors, or a second replay that
      is not a no-op.  A correct journal never produces one. *)

(** The kfault site the sweep arms ([blockdev.crash_point]). *)
val crash_site : string

type crash_class = Consistent | Recovered | Corrupt

val crash_class_to_string : crash_class -> string

type crash_row = {
  cr_occurrence : int;  (** which durable write died *)
  cr_class : crash_class;
  cr_replayed : int;  (** committed intents the recovery applied *)
  cr_torn : int;  (** torn records the recovery discarded *)
  cr_fsck_errs : string list;
  cr_detail : string;
}

type crash_sweep_result = {
  cs_points : int;  (** reachable crash points (counting-mode occurrences) *)
  cs_rows : crash_row list;
  cs_corrupt : int;
}

(** Run the whole crash sweep: one counting run, then one
    crash-and-reboot per (sampled) crash point.  [progress] is called
    before each point with (index, total, occurrence). *)
val crash_sweep :
  ?max_per_site:int ->
  ?progress:(int -> int -> int -> unit) ->
  unit ->
  crash_sweep_result
