(** Kcrash: oops containment and crash-consistent recovery.

    Front 1 — {b oops containment}.  The substrate's kill sites (the
    kverify syscall-flow gate, the Cosy and kring watchdogs, an escaped
    kernel-mode memory fault) historically marked the offender dead and
    leaked whatever it held.  With kcrash {!install}ed,
    [Ksim.Kernel.reap] routes here and the oops path reaps everything
    the dying process owned — fd-table entries, kmalloc/vmalloc heap
    objects (guardian PTEs included), held spinlocks (poisoned then
    force-released with a [Contended]-style instrument event), and
    registered in-flight subsystem state such as ring queues — leaving
    every other process bit-for-bit unaffected.

    Front 2 — {b power-loss recovery}.  The [blockdev.crash_point]
    kfault site (trigger [crash_at:CYCLE], i.e. [at:CYCLE]) models power
    failing at a durable-write boundary: [Power_loss] escapes, the
    volatile kernel dies, and the next boot rebuilds from the persistent
    {!Kvfs.Block_dev.image} alone via journalfs replay-on-mount.
    {!note_recovery} accounts for what the replay salvaged.

    All counters ([kcrash.oops], [kcrash.reaped_*], [kcrash.recoveries],
    [kcrash.torn_discarded], [kcrash.replayed_records]) are created
    lazily on the first event, so an installed-but-quiet kcrash leaves
    the kstats dump byte-identical to a kernel without it. *)

(** What a booted kcrash does beyond oops containment, which it always
    installs ([Core.boot_with] calls {!install}). *)
type config = {
  durable : bool;
      (** journalfs write-ahead logging + replay-on-mount (only
          meaningful with [Config.fs = Journalfs]) *)
}

(** [{ durable = true }]. *)
val default_config : config

(** Re-export of {!Ksim.Kernel.Oops}: raised by the syscall dispatcher
    after a contained kernel-mode memory fault. *)
exception Oops of { pid : int; reason : string }

(** Re-export of {!Kvfs.Block_dev.Power_loss}: raised when the armed
    [blockdev.crash_point] fault site fires at a durable write. *)
exception Power_loss

(** What one contained oops reaped. *)
type oops_report = {
  o_pid : int;
  o_reason : string;
  o_time : int;  (** cycles at containment *)
  o_fds : int;  (** fd-table entries closed *)
  o_kmallocs : int;  (** slab objects freed *)
  o_vmallocs : int;  (** vmalloc areas freed, guardian PTEs torn down *)
  o_locks : int;  (** spinlocks poisoned and force-released *)
  o_ring : int;  (** in-flight ring entries discarded *)
}

type t

val create : Ksim.Kernel.t -> Ksyscall.Systable.t -> t

(** Route [Ksim.Kernel.reap] (the kverify [Kill] policy, the Cosy and
    kring watchdogs, the dispatcher's fault containment) through
    {!oops}. *)
val install : t -> unit

(** The oops path itself: kill [p] and reap everything it held.  Calls
    [force_user_mode] first — a process dying mid-syscall never returns
    to the dispatcher's exit path.  Ends with an [Instrument.Oops] event
    (pid = the dying process, value = entries reaped, file = [reason]). *)
val oops : t -> Ksim.Kproc.t -> reason:string -> unit

(** Register a subsystem reaper (e.g. kring's [discard_pending]); it
    receives the dying pid and returns how many entries it discarded. *)
val add_reaper : t -> (pid:int -> int) -> unit

(** Have the oops path drop Kefence bookkeeping (buffer and guardian
    maps) for every vmalloc area it frees, so no guardian PTE outlives
    its owner. *)
val attach_kefence : t -> Kefence.t -> unit

(** Account a journalfs replay-on-mount: bumps [kcrash.recoveries],
    [kcrash.torn_discarded] and [kcrash.replayed_records], and emits an
    [Instrument.Power_loss] event (value = torn records) followed by an
    [Instrument.Recovery] event (value = replayed records). *)
val note_recovery : t -> Kvfs.Journalfs.recover_info -> unit

(** Contained-oops reports, oldest first. *)
val reports : t -> oops_report list

val oops_count : t -> int
val pp_oops_report : Format.formatter -> oops_report -> unit
