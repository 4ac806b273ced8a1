(** Kernel-wide metrics: a registry of named counters, gauges and
    log₂-bucketed histograms.

    Subsystems obtain handles once ([counter], [gauge], [histogram]) and
    update them from hot paths.  Counters and gauges always count — they
    are the only record of each count, so no subsystem keeps a shadow
    copy.  [enabled] gates histograms: while disabled, {!observe} is a
    single branch and records nothing.  Recording never advances the
    simulated clock, so kstats is cycle-neutral in either state.

    Two export paths sit on top: {!pp_report} renders a /proc-style
    text table and {!to_json} serializes for the bench artifact. *)

(** Kernels created while this is [true] boot with their registry
    enabled, i.e. recording histograms (mirrors [Instrument.enabled]'s
    role for events). *)
val default_enabled : bool ref

type t

type counter
type gauge
type hist

(** [enabled] (default [false]) gates histograms only. *)
val create : ?enabled:bool -> unit -> t

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

(** Registering the same name twice returns the same handle.
    @raise Type_clash if the name is already a different metric type. *)
exception Type_clash of string

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> hist

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit

(** [set] stores a level and tracks its peak. *)
val set : gauge -> int -> unit

(** [gauge_add] moves a level by a delta and tracks its peak. *)
val gauge_add : gauge -> int -> unit

(** Record one sample (negative samples clamp to 0); a no-op (one
    branch) while the registry is disabled. *)
val observe : t -> hist -> int -> unit

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val gauge_max : gauge -> int
val hist_count : hist -> int
val hist_sum : hist -> int
val hist_mean : hist -> float

(** Upper bound of the log₂ bucket containing the given percentile
    rank, clamped to the observed min/max; 0 on an empty histogram. *)
val percentile : hist -> float -> int

(** Bucket index for a sample: 0 for values <= 1, else ⌊log₂ v⌋. *)
val bucket_of_value : int -> int

(** Inclusive [lo, hi] range of bucket [i]. *)
val bucket_bounds : int -> int * int

(** Bucket-wise merge; inputs unchanged. *)
val merge_hist : hist -> hist -> hist

(** {1 Snapshots} *)

type hist_view = {
  v_count : int;
  v_sum : int;
  v_min : int;
  v_max : int;
  v_mean : float;
  v_p50 : int;
  v_p90 : int;
  v_p99 : int;
  v_buckets : (int * int * int) list;  (** (lo, hi, n), nonzero only *)
}

type view =
  | Counter_v of int
  | Gauge_v of { value : int; max : int }
  | Hist_v of hist_view

(** Metric names in registration order. *)
val names : t -> string list

val dump : t -> (string * view) list
val find : t -> string -> view option

(** Aggregate [src] into [into]: counters add, gauges keep peaks,
    histograms merge. *)
val merge_into : into:t -> t -> unit

(** {1 Export} *)

val pp_report : Format.formatter -> t -> unit

(** The registry as one JSON object keyed by metric name. *)
val to_json : t -> string

(** Append {!to_json} output to a buffer (for composing documents). *)
val buffer_json : Buffer.t -> t -> unit

val json_escape : string -> string
