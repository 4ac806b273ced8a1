(* The event dispatcher of Figure 1: log_event -> dispatcher -> a set of
   callbacks.  In-kernel on-line monitors register synchronous callbacks;
   the ring-buffer feed for user space is itself one such callback,
   installed by [enable_ring]. *)

type callback = Ksim.Instrument.event -> unit

type t = {
  kernel : Ksim.Kernel.t;
  mutable callbacks : (string * callback) list;
  ring : Ksim.Instrument.event Ring.t;
  kstats : Kstats.t;
  st_events : Kstats.counter;
  st_ring_pushed : Kstats.counter;
  st_ring_dropped : Kstats.counter;
  mutable ring_enabled : bool;
  mutable events : int;
}

let create ?(ring_capacity = 8192) kernel =
  let kstats = Ksim.Kernel.stats kernel in
  {
    kernel;
    callbacks = [];
    ring = Ring.create ~name:"dispatcher" ~stats:kstats ring_capacity;
    kstats;
    st_events = Kstats.counter kstats "kmonitor.events";
    st_ring_pushed = Kstats.counter kstats "kmonitor.ring_pushed";
    st_ring_dropped = Kstats.counter kstats "kmonitor.ring_dropped";
    ring_enabled = false;
    events = 0;
  }

let ring t = t.ring

(* The log_event entry point. *)
let log_event t (ev : Ksim.Instrument.event) =
  let cost = Ksim.Kernel.cost t.kernel in
  Ksim.Sim_clock.advance (Ksim.Kernel.clock t.kernel)
    cost.Ksim.Cost_model.event_dispatch;
  t.events <- t.events + 1;
  Kstats.incr t.kstats t.st_events;
  List.iter (fun (_, cb) -> cb ev) t.callbacks;
  if t.ring_enabled then begin
    Ksim.Sim_clock.advance (Ksim.Kernel.clock t.kernel)
      cost.Ksim.Cost_model.ring_push;
    if Ring.push t.ring ev then Kstats.incr t.kstats t.st_ring_pushed
    else Kstats.incr t.kstats t.st_ring_dropped
  end

(* The instrumentation point is process-global, so at most one
   dispatcher holds it: installing another displaces this one. *)
let installed : t option ref = ref None

(* Wire the dispatcher into the kernel's instrumentation point. *)
let install t =
  installed := Some t;
  Ksim.Instrument.log := log_event t;
  Ksim.Instrument.enabled := true

(* A displaced dispatcher's uninstall leaves the live one connected. *)
let uninstall t =
  match !installed with
  | Some d when d == t ->
      installed := None;
      Ksim.Instrument.enabled := false;
      Ksim.Instrument.log := (fun _ -> ())
  | _ -> ()

let register t ~name cb = t.callbacks <- t.callbacks @ [ (name, cb) ]

let unregister t ~name =
  t.callbacks <- List.filter (fun (n, _) -> n <> name) t.callbacks

let enable_ring t = t.ring_enabled <- true
let disable_ring t = t.ring_enabled <- false

let events t = t.events
let callback_count t = List.length t.callbacks
