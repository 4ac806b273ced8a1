(** Dentry cache: [(parent inode, name) -> inode].

    In the compatibility configuration (one shard, the default) every
    operation takes the global [dcache_lock]; path resolution hits it
    once per component and namespace operations hit it on
    insert/invalidate, which is how experiment E6 reproduces the paper's
    dcache_lock acquisition counts under PostMark.

    With [shards > 1] the table splits into per-shard buckets with
    per-shard locks, and lookups use a lockless seqcount fast path
    (validate-and-retry); only writers lock.  Experiment E13 measures
    this against the global-lock mode under SMP PostMark. *)

type t

(** [create ?stats ?ctx ?shards ()] builds an empty cache.  The cache
    registers [dcache.hits]/[dcache.misses]/[dcache.invalidations]
    counters in [stats] (default: a fresh registry).  [ctx]
    makes the shard locks contention-aware (see {!Ksim.Spinlock.ctx});
    [perf] additionally traces each miss as a kperf instant and each
    contended shard-lock wait as a span.  [shards] defaults to 1, the
    global-lock mode. *)
val create :
  ?stats:Kstats.t -> ?ctx:Ksim.Spinlock.ctx -> ?perf:Kperf.t -> ?shards:int ->
  unit -> t

val nshards : t -> int

(** The dcache_lock of shard 0 — in the default configuration, the one
    global lock (its instrumentation events carry this lock's object
    id). *)
val lock : t -> Ksim.Spinlock.t

(** [pid] attributes the lock events of each operation to the acting
    process (0 = unattributed). *)
val lookup : ?pid:int -> t -> dir:int -> name:string -> int option

val insert : ?pid:int -> t -> dir:int -> name:string -> ino:int -> unit
val invalidate : ?pid:int -> t -> dir:int -> name:string -> unit
val clear : ?pid:int -> t -> unit

(** Lock acquisitions so far, summed over shards. *)
val acquisitions : t -> int

(** Contended acquisitions so far, summed over shards. *)
val contended : t -> int

(** Cycles spent spinning on shard locks, summed over shards. *)
val spin_cycles : t -> int

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  lock_acquisitions : int;
}

(** Derived from the kstats counters, so the two reporting paths can
    never disagree. *)
val stats : t -> stats
