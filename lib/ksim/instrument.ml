(* Low-level instrumentation indirection.  Kernel objects (spinlocks,
   reference counters, interrupt state) report events through [log];
   the kmonitor library installs the real dispatcher here.  Keeping only
   the indirection in ksim avoids a dependency cycle while matching the
   paper's design: log_event is a single entry point invoked from
   anywhere in the kernel, including interrupt context. *)

(* Every event the kernel reports.  The last five are emitted by the
   subsystems above ksim (knet, kverify, kcrash) straight into [emit]. *)
type kind =
  | Lock
  | Unlock
  | Contended
  | Ref_inc
  | Ref_dec
  | Irq_disable
  | Irq_enable
  | Sem_down
  | Sem_up
  | Backlog_drop   (* knet: listen backlog full, SYN dropped *)
  | Sfi_violation  (* kverify: syscall-flow transition never recorded *)
  | Oops           (* kcrash: a process killed and reaped *)
  | Power_loss     (* kcrash: torn WAL records found at reboot *)
  | Recovery       (* kcrash: WAL records replayed at reboot *)

(* The one name table: [pp_kind] prints from it and kmonitor's rule
   language parses from it. *)
let kind_names =
  [
    (Lock, "lock");
    (Unlock, "unlock");
    (Contended, "contended");
    (Ref_inc, "ref-inc");
    (Ref_dec, "ref-dec");
    (Irq_disable, "irq-disable");
    (Irq_enable, "irq-enable");
    (Sem_down, "sem-down");
    (Sem_up, "sem-up");
    (Backlog_drop, "net-backlog-drop");
    (Sfi_violation, "sfi-violation");
    (Oops, "kcrash-oops");
    (Power_loss, "kcrash-power-loss");
    (Recovery, "kcrash-recovery");
  ]

let kind_of_name s =
  List.find_map (fun (k, n) -> if n = s then Some k else None) kind_names

let pp_kind ppf k = Fmt.string ppf (List.assoc k kind_names)

(* Mirrors the paper's per-event record: an object reference, an event
   type, the source file/line that triggered it, and the process on whose
   behalf it fired (0 = interrupt/unattributed context). *)
type event = {
  obj : int;          (* identity of the affected kernel object *)
  value : int;        (* current value, e.g. refcount after the event *)
  kind : kind;
  file : string;
  line : int;
  pid : int;          (* acting process, 0 when unattributed *)
}

let pp_event ppf e =
  Fmt.pf ppf "obj=%d %a value=%d pid=%d (%s:%d)" e.obj pp_kind e.kind e.value
    e.pid e.file e.line

(* Default: instrumentation compiled out — events vanish at the cost of a
   single indirect call, as in an uninstrumented kernel. *)
let log : (event -> unit) ref = ref (fun _ -> ())

let enabled = ref false

let emit ?(pid = 0) ~obj ~value ~kind ~file ~line () =
  if !enabled then !log { obj; value; kind; file; line; pid }
