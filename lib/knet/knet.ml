(* knet: deterministic, cycle-accounted sockets for the simulated kernel.

   The server half (listeners, backlogs, bounded per-connection buffers,
   level-triggered epoll) is real data structures; the client half is a
   discrete-event traffic generator on a global min-heap keyed by
   (due-cycle, insertion-seq), so a run is a deterministic function of
   the installed traffic specs and the cost model.  Blocking epoll_wait
   advances the simulated clock as I/O wait — the process is asleep on a
   wait queue until the "NIC" delivers something interesting. *)

module Kernel = Ksim.Kernel
module Kproc = Ksim.Kproc
module Instrument = Ksim.Instrument
module V = Kvfs.Vtypes

let handle_base = 0x4000_0000
let ep_in = 1
let ep_out = 2
let ep_hup = 4

(* A byte FIFO over Buffer: append at the tail, consume a prefix. *)
module Bq = struct
  type t = { buf : Buffer.t; mutable off : int }

  let create () = { buf = Buffer.create 64; off = 0 }
  let length q = Buffer.length q.buf - q.off

  let push_sub q s pos len = Buffer.add_substring q.buf s pos len
  let push_bytes_sub q b pos len = Buffer.add_subbytes q.buf b pos len

  let take q n =
    let n = min n (length q) in
    let b = Bytes.of_string (Buffer.sub q.buf q.off n) in
    q.off <- q.off + n;
    if q.off = Buffer.length q.buf then (Buffer.clear q.buf; q.off <- 0);
    b
end

module Heap = struct
  (* Binary min-heap on (due, seq): FIFO among events due the same cycle. *)
  type 'a t = { mutable arr : (int * int * 'a) option array; mutable len : int }

  let create () = { arr = Array.make 64 None; len = 0 }
  let is_empty h = h.len = 0
  let get h i = match h.arr.(i) with Some e -> e | None -> assert false

  let less (d1, s1, _) (d2, s2, _) = d1 < d2 || (d1 = d2 && s1 < s2)

  let push h due seq ev =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) None in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- Some (due, seq, ev);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if less (get h !i) (get h p) then begin
        let tmp = h.arr.(!i) in
        h.arr.(!i) <- h.arr.(p);
        h.arr.(p) <- tmp;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let peek h = if h.len = 0 then None else Some (get h 0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = get h 0 in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- None;
      let i = ref 0 in
      let continue = ref (h.len > 1) in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && less (get h l) (get h !smallest) then smallest := l;
        if r < h.len && less (get h r) (get h !smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!i) in
          h.arr.(!i) <- h.arr.(!smallest);
          h.arr.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

(* One simulated client driving one connection. *)
type client = {
  cl_seq : int;                      (* arrival index within its port *)
  cl_port : int;
  cl_total : int;                    (* requests it will issue *)
  cl_pipeline : int;
  cl_think : int;
  cl_req_of : int -> string;
  mutable cl_conn : int;             (* conn sock id; -1 before connect *)
  mutable cl_sent : int;
  mutable cl_done : int;
  cl_hdr : Bytes.t;                  (* 8-byte response length accumulator *)
  mutable cl_hdr_got : int;
  mutable cl_body_left : int;
  cl_sent_at : int Queue.t;          (* client-side send instants, FIFO *)
  cl_span : int Queue.t;             (* kperf async span ids, same FIFO *)
  cl_resp : Buffer.t;                (* raw response stream until digest *)
  mutable cl_finished : bool;
  mutable cl_fails : int;            (* consecutive failures, drives backoff *)
  mutable cl_txq : string list;      (* unacked tx data, strict FIFO: a
                                        retransmitted frame keeps its place
                                        at the head, so later pipelined
                                        frames cannot overtake it *)
}

type conn = {
  cn_id : int;
  cn_port : int;
  cn_recv : Bq.t;                    (* client -> server *)
  cn_send : Bq.t;                    (* server -> client, awaiting drain *)
  mutable cn_peer_closed : bool;
  mutable cn_closed : bool;
  mutable cn_accepted : bool;
  mutable cn_drain_scheduled : bool;
  mutable cn_client : client option;
}

type listener = {
  l_id : int;
  l_port : int;
  mutable l_backlog : int;
  l_queue : int Queue.t;             (* conn ids awaiting accept *)
  mutable l_drops : int;
}

type sock =
  | S_new of { mutable sn_port : int }
  | S_listen of listener
  | S_conn of conn

type ep = { ep_interest : (int, int * int) Hashtbl.t (* sock -> mask, cookie *) }

type ev =
  | Ev_connect of client
  | Ev_deliver of client
      (* a delivery tick: the payload lives in [cl_txq], not the event,
         so per-connection byte order survives retransmit delays *)
  | Ev_drain of int

type port_state = {
  ps_conns : int;
  mutable ps_completed : int;
  mutable ps_responses : int;
  mutable ps_drops : int;
  mutable ps_retrans : int;          (* wire frames lost and re-sent *)
  ps_digests : string array;         (* per-connection, arrival order *)
}

type t = {
  kn : Kernel.t;
  rcvbuf : int;
  sndbuf : int;
  socks : (int, sock) Hashtbl.t;
  eps : (int, ep) Hashtbl.t;
  ports : (int, int) Hashtbl.t;      (* port -> listener sock id *)
  heap : ev Heap.t;
  mutable seq : int;                 (* heap insertion tiebreaker *)
  mutable next_id : int;
  traffic : (int, port_state) Hashtbl.t;
  mutable stage : Bytes.t;           (* shared transmit staging region *)
  (* kstats handles *)
  stats : Kstats.t;
  st_conns : Kstats.counter;
  st_accepts : Kstats.counter;
  st_drops : Kstats.counter;
  st_sendq_full : Kstats.counter;
  st_rcvq_full : Kstats.counter;
  st_bytes_in : Kstats.counter;
  st_bytes_out : Kstats.counter;
  st_epoll_waits : Kstats.counter;
  st_epoll_wakeups : Kstats.counter;
  st_sendfile_bytes : Kstats.counter;
  st_stage_hw : Kstats.gauge;
  st_latency : Kstats.hist;
  st_redials : Kstats.counter;
  st_retransmits : Kstats.counter;
  st_backoff_cycles : Kstats.counter;
  fault : Kfault.t;
  site_wire_drop : Kfault.site;
  site_recv_short : Kfault.site;
}

let create ?(rcvbuf = 16 * 1024) ?(sndbuf = 32 * 1024) kn =
  let stats = Kernel.stats kn in
  {
    kn;
    rcvbuf;
    sndbuf;
    socks = Hashtbl.create 64;
    eps = Hashtbl.create 4;
    ports = Hashtbl.create 4;
    heap = Heap.create ();
    seq = 0;
    next_id = 1;
    traffic = Hashtbl.create 4;
    stage = Bytes.create 0;
    stats;
    st_conns = Kstats.counter stats "net.conns";
    st_accepts = Kstats.counter stats "net.accepts";
    st_drops = Kstats.counter stats "net.backlog_drops";
    st_sendq_full = Kstats.counter stats "net.sendq_full";
    st_rcvq_full = Kstats.counter stats "net.rcvq_full";
    st_bytes_in = Kstats.counter stats "net.bytes_in";
    st_bytes_out = Kstats.counter stats "net.bytes_out";
    st_epoll_waits = Kstats.counter stats "net.epoll.waits";
    st_epoll_wakeups = Kstats.counter stats "net.epoll.wakeups";
    st_sendfile_bytes = Kstats.counter stats "net.sendfile.bytes";
    st_stage_hw = Kstats.gauge stats "net.sendfile.stage_high_water";
    st_latency = Kstats.histogram stats "net.request.latency";
    st_redials = Kstats.counter stats "retry.net_redials";
    st_retransmits = Kstats.counter stats "retry.net_retransmits";
    st_backoff_cycles = Kstats.counter stats "retry.net_backoff_cycles";
    fault = Kernel.fault kn;
    site_wire_drop = Kfault.register (Kernel.fault kn) "net.wire_drop";
    site_recv_short = Kfault.register (Kernel.fault kn) "net.recv_short";
  }

let kernel t = t.kn
let now t = Kernel.now t.kn
let charge t = Kernel.charge_kernel t.kn (Kernel.cost t.kn).net_op
let wire t = (Kernel.cost t.kn).wire_latency

let push_ev t due ev =
  t.seq <- t.seq + 1;
  Heap.push t.heap (max due (now t)) t.seq ev

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let pending_events t = t.heap.Heap.len

(* ---------- client side (runs at event-processing time) ---------- *)

let port_state t port = Hashtbl.find_opt t.traffic port

let schedule_request t cl ~req ~send_at =
  Queue.push send_at cl.cl_sent_at;
  (* a request outlives any single syscall — send, kernel-side service,
     drain, client rx can each happen in different kernel stays — so it
     is an *async* span, keyed by id on its own Perfetto track *)
  Queue.push
    (Kperf.async_begin (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"net"
       ~name:"request" ())
    cl.cl_span;
  cl.cl_txq <- cl.cl_txq @ [ cl.cl_req_of req ];
  push_ev t (send_at + wire t) (Ev_deliver cl)

let response_done t cl =
  cl.cl_done <- cl.cl_done + 1;
  (match Queue.take_opt cl.cl_sent_at with
  | Some sent -> Kstats.observe t.stats t.st_latency (now t - sent)
  | None -> ());
  (match Queue.take_opt cl.cl_span with
  | Some span -> Kperf.async_end (Kernel.perf t.kn) ~arg:cl.cl_port span
  | None -> ());
  (match port_state t cl.cl_port with
  | Some ps -> ps.ps_responses <- ps.ps_responses + 1
  | None -> ());
  if cl.cl_done >= cl.cl_total then begin
    cl.cl_finished <- true;
    (match port_state t cl.cl_port with
    | Some ps ->
        ps.ps_digests.(cl.cl_seq) <-
          Digest.to_hex (Digest.string (Buffer.contents cl.cl_resp));
        ps.ps_completed <- ps.ps_completed + 1
    | None -> ());
    Buffer.clear cl.cl_resp;
    (* FIN rides the final ack: the server sees EOF once it drains. *)
    match Hashtbl.find_opt t.socks cl.cl_conn with
    | Some (S_conn c) -> c.cn_peer_closed <- true
    | _ -> ()
  end
  else if cl.cl_sent < cl.cl_total then begin
    let send_at = now t + cl.cl_think in
    schedule_request t cl ~req:cl.cl_sent ~send_at;
    cl.cl_sent <- cl.cl_sent + 1
  end

(* Parse drained bytes against the 8-byte-length + body framing. *)
let client_rx t cl (b : Bytes.t) =
  Buffer.add_bytes cl.cl_resp b;
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len && not cl.cl_finished do
    if cl.cl_body_left > 0 then begin
      let n = min cl.cl_body_left (len - !pos) in
      cl.cl_body_left <- cl.cl_body_left - n;
      pos := !pos + n;
      if cl.cl_body_left = 0 then response_done t cl
    end
    else begin
      let n = min (8 - cl.cl_hdr_got) (len - !pos) in
      Bytes.blit b !pos cl.cl_hdr cl.cl_hdr_got n;
      cl.cl_hdr_got <- cl.cl_hdr_got + n;
      pos := !pos + n;
      if cl.cl_hdr_got = 8 then begin
        cl.cl_body_left <- Int64.to_int (Bytes.get_int64_le cl.cl_hdr 0);
        cl.cl_hdr_got <- 0;
        if cl.cl_body_left = 0 then response_done t cl
      end
    end
  done

(* ---------- NIC-side injection ---------- *)

type connect_result = C_ok of int * int | C_drop of int | C_refused

let connect_attempt t ~port ~client =
  match Hashtbl.find_opt t.ports port with
  | None -> C_refused
  | Some lid -> (
      match Hashtbl.find_opt t.socks lid with
      | Some (S_listen l) when l.l_backlog > 0 ->
          if Queue.length l.l_queue >= l.l_backlog then begin
            l.l_drops <- l.l_drops + 1;
            Kstats.incr t.st_drops;
            (match port_state t port with
            | Some ps -> ps.ps_drops <- ps.ps_drops + 1
            | None -> ());
            Instrument.emit ~obj:port ~value:l.l_drops
              ~kind:Instrument.Backlog_drop ~file:"knet.ml"
              ~line:0 ();
            Kperf.instant (Kernel.perf t.kn) ~arg:port ~cat:"net"
              ~name:"backlog_drop" ();
            C_drop lid
          end
          else begin
            let id = fresh_id t in
            let c =
              {
                cn_id = id;
                cn_port = port;
                cn_recv = Bq.create ();
                cn_send = Bq.create ();
                cn_peer_closed = false;
                cn_closed = false;
                cn_accepted = false;
                cn_drain_scheduled = false;
                cn_client = client;
              }
            in
            Hashtbl.replace t.socks id (S_conn c);
            Queue.push id l.l_queue;
            Kstats.incr t.st_conns;
            C_ok (lid, id)
          end
      | _ -> C_refused)

let inject_connect t ~port =
  match connect_attempt t ~port ~client:None with
  | C_ok (_, id) -> Some id
  | C_drop _ | C_refused -> None

(* Errno-carrying variant: the two rejection paths are distinct — a SYN
   dropped by a full backlog looks like a timeout to the client, while a
   port nobody listens on is actively refused. *)
let inject_connect_result t ~port =
  match connect_attempt t ~port ~client:None with
  | C_ok (_, id) -> Ok id
  | C_drop _ -> Error V.ETIMEDOUT
  | C_refused -> Error V.ECONNREFUSED

let deliver_bytes t c s pos len =
  let space = t.rcvbuf - Bq.length c.cn_recv in
  let n = min space len in
  if n < len then Kstats.incr t.st_rcvq_full;
  if n > 0 then begin
    Bq.push_sub c.cn_recv s pos n;
    Kstats.add t.st_bytes_in n
  end;
  n

let inject_bytes t ~sock s =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) when not c.cn_closed ->
      deliver_bytes t c s 0 (String.length s)
  | _ -> 0

let inject_fin t ~sock =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) -> c.cn_peer_closed <- true
  | _ -> ()

(* ---------- event processing ---------- *)

(* Exponential backoff for a client's consecutive failures: the first
   retry keeps the historical 4*wire delay, each further consecutive
   failure doubles it (capped at 32*wire), and any success resets the
   streak.  The extra wait is pure simulated elapsed time — the client
   is asleep, not burning CPU — counted in retry.net_backoff_cycles. *)
let backoff_delay t cl =
  let base = 4 * wire t in
  let d = base * (1 lsl min cl.cl_fails 3) in
  if d > base then Kstats.add t.st_backoff_cycles (d - base);
  cl.cl_fails <- cl.cl_fails + 1;
  d

(* Returns the sock ids whose readiness the event may have changed. *)
let process_event t = function
  | Ev_connect cl -> (
      match connect_attempt t ~port:cl.cl_port ~client:(Some cl) with
      | C_ok (lid, id) ->
          cl.cl_fails <- 0;
          cl.cl_conn <- id;
          let burst = min cl.cl_pipeline cl.cl_total in
          for k = 0 to burst - 1 do
            (* tiny per-request skew keeps deliveries ordered *)
            schedule_request t cl ~req:k ~send_at:(now t + (k * 16))
          done;
          cl.cl_sent <- burst;
          [ lid; id ]
      | C_drop lid ->
          (* client backs off and redials *)
          Kstats.incr t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          [ lid ]
      | C_refused ->
          Kstats.incr t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          [])
  | Ev_deliver cl -> (
      match (Hashtbl.find_opt t.socks cl.cl_conn, cl.cl_txq) with
      | Some (S_conn c), data :: rest when not c.cn_closed ->
          if Kfault.fire t.fault t.site_wire_drop then begin
            (* the frame vanishes on the wire; the client's retransmit
               timer re-sends the whole payload after a backoff.  The
               data stays at the head of the tx queue, so pipelined
               frames behind it wait their turn, as TCP's sequence
               numbers would make them *)
            Kstats.incr t.st_retransmits;
            (match port_state t cl.cl_port with
            | Some ps -> ps.ps_retrans <- ps.ps_retrans + 1
            | None -> ());
            Kperf.instant (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"retry"
              ~name:"net.retransmit" ();
            push_ev t (now t + backoff_delay t cl) (Ev_deliver cl);
            [ c.cn_id ]
          end
          else begin
            cl.cl_fails <- 0;
            let len = String.length data in
            let n = deliver_bytes t c data 0 len in
            if n < len then begin
              cl.cl_txq <- String.sub data n (len - n) :: rest;
              push_ev t (now t + (max 1 (wire t / 4))) (Ev_deliver cl)
            end
            else cl.cl_txq <- rest;
            [ c.cn_id ]
          end
      | _ -> [])
  | Ev_drain id -> (
      match Hashtbl.find_opt t.socks id with
      | Some (S_conn c) ->
          c.cn_drain_scheduled <- false;
          let n = Bq.length c.cn_send in
          if n > 0 then begin
            let b = Bq.take c.cn_send n in
            Kstats.add t.st_bytes_out n;
            match c.cn_client with
            | Some cl when not cl.cl_finished -> client_rx t cl b
            | _ -> ()
          end;
          [ id ]
      | None | Some (S_new _) | Some (S_listen _) -> [])

let pump t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.heap with
    | Some (due, _, _) when due <= now t ->
        (match Heap.pop t.heap with
        | Some (_, _, ev) -> ignore (process_event t ev)
        | None -> ())
    | _ -> continue := false
  done

(* Advance the clock (I/O wait) to the next event and process it. *)
let advance_and_process t =
  match Heap.pop t.heap with
  | None -> []
  | Some (due, _, ev) ->
      if due > now t then Kernel.charge_io t.kn (due - now t);
      process_event t ev

let step t =
  if Heap.is_empty t.heap then false
  else begin
    ignore (advance_and_process t);
    true
  end

(* ---------- socket operations ---------- *)

let socket t =
  charge t;
  let id = fresh_id t in
  Hashtbl.replace t.socks id (S_new { sn_port = 0 });
  id

let bind t ~sock ~port =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if port <= 0 then Error V.EINVAL
      else if Hashtbl.mem t.ports port then Error V.EADDRINUSE
      else begin
        s.sn_port <- port;
        Hashtbl.replace t.ports port sock;
        Ok ()
      end
  | Some (S_listen _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let listen t ~sock ~backlog =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if s.sn_port = 0 then Error V.EINVAL
      else if backlog <= 0 then Error V.EINVAL
      else begin
        Hashtbl.replace t.socks sock
          (S_listen
             {
               l_id = sock;
               l_port = s.sn_port;
               l_backlog = backlog;
               l_queue = Queue.create ();
               l_drops = 0;
             });
        Ok ()
      end
  | Some (S_listen l) ->
      l.l_backlog <- backlog;
      Ok ()
  | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let accept t ~sock =
  charge t;
  match Hashtbl.find_opt t.socks sock with
  | Some (S_listen l) -> (
      match Queue.take_opt l.l_queue with
      | Some id ->
          (match Hashtbl.find_opt t.socks id with
          | Some (S_conn c) -> c.cn_accepted <- true
          | _ -> ());
          Kstats.incr t.st_accepts;
          Kperf.instant (Kernel.perf t.kn) ~arg:id ~cat:"net" ~name:"accept"
            ();
          Ok id
      | None -> Error V.EAGAIN)
  | Some (S_new _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let conn_of t sock =
  match Hashtbl.find_opt t.socks sock with
  | Some (S_conn c) -> Ok c
  | Some (S_new _) | Some (S_listen _) -> Error V.ENOTSOCK
  | None -> Error V.EBADF

let recv t ~sock ~len =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> Bytes.empty)
  | Ok c ->
      let avail = Bq.length c.cn_recv in
      if avail = 0 then
        if c.cn_peer_closed then Ok Bytes.empty else Error V.EAGAIN
      else begin
        let want = min (max 0 len) avail in
        (* injected short read: the NIC handed over only part of the
           queued bytes; callers loop on recv, so streams stay intact *)
        let want =
          if want > 1 && Kfault.fire t.fault t.site_recv_short then
            (want + 1) / 2
          else want
        in
        Ok (Bq.take c.cn_recv want)
      end

let schedule_drain t c =
  if (not c.cn_drain_scheduled) && Bq.length c.cn_send > 0 then begin
    c.cn_drain_scheduled <- true;
    push_ev t (now t + wire t) (Ev_drain c.cn_id)
  end

let send_space t ~sock =
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> Ok (t.sndbuf - Bq.length c.cn_send)

let append_out t c data =
  let len = Bytes.length data in
  let space = t.sndbuf - Bq.length c.cn_send in
  let n = min space len in
  if n = 0 && len > 0 then begin
    Kstats.incr t.st_sendq_full;
    (* a completely full send queue is its own condition (ENOBUFS),
       distinct from the would-block EAGAIN of an empty recv queue *)
    Error V.ENOBUFS
  end
  else begin
    if n < len then Kstats.incr t.st_sendq_full;
    Bq.push_bytes_sub c.cn_send data 0 n;
    schedule_drain t c;
    Ok n
  end

let send t ~sock ~data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> append_out t c data

(* Zero-copy transmit: the payload reaches the send queue through the
   kernel-owned staging region instead of a user buffer, so no
   copy_{from,to}_user bytes are charged (the DMA cost is the caller's,
   mirroring Consolidated.service_sendfile). *)
let send_kernel t ~sock data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c ->
      let len = Bytes.length data in
      if Bytes.length t.stage < len then begin
        let cap = max 4096 len in
        t.stage <- Bytes.create cap
      end;
      Bytes.blit data 0 t.stage 0 len;
      Kstats.set t.st_stage_hw len;
      let r = append_out t c (Bytes.sub t.stage 0 len) in
      (match r with
      | Ok n -> Kstats.add t.st_sendfile_bytes n
      | Error _ -> ());
      r

let close t ~sock =
  charge t;
  Hashtbl.iter (fun _ e -> Hashtbl.remove e.ep_interest sock) t.eps;
  if Hashtbl.mem t.eps sock then Hashtbl.remove t.eps sock
  else
    match Hashtbl.find_opt t.socks sock with
    | None -> ()
    | Some (S_new s) ->
        if s.sn_port <> 0 && Hashtbl.find_opt t.ports s.sn_port = Some sock
        then Hashtbl.remove t.ports s.sn_port;
        Hashtbl.remove t.socks sock
    | Some (S_listen l) ->
        if Hashtbl.find_opt t.ports l.l_port = Some sock then
          Hashtbl.remove t.ports l.l_port;
        Queue.iter
          (fun id ->
            match Hashtbl.find_opt t.socks id with
            | Some (S_conn c) ->
                c.cn_closed <- true;
                Hashtbl.remove t.socks id
            | _ -> ())
          l.l_queue;
        Hashtbl.remove t.socks sock
    | Some (S_conn c) ->
        c.cn_closed <- true;
        Hashtbl.remove t.socks sock

(* ---------- epoll ---------- *)

let epoll_create t =
  charge t;
  let id = fresh_id t in
  Hashtbl.replace t.eps id { ep_interest = Hashtbl.create 16 };
  id

let epoll_ctl t ~ep ~sock ~op =
  charge t;
  match Hashtbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e -> (
      match op with
      | `Add (mask, cookie) ->
          if not (Hashtbl.mem t.socks sock) then Error V.EBADF
          else begin
            Hashtbl.replace e.ep_interest sock (mask, cookie);
            Ok ()
          end
      | `Del ->
          Hashtbl.remove e.ep_interest sock;
          Ok ())

let ready_mask t id =
  match Hashtbl.find_opt t.socks id with
  | Some (S_listen l) -> if Queue.length l.l_queue > 0 then ep_in else 0
  | Some (S_conn c) ->
      let m = ref 0 in
      if Bq.length c.cn_recv > 0 || c.cn_peer_closed then m := !m lor ep_in;
      if c.cn_peer_closed then m := !m lor ep_hup;
      if t.sndbuf - Bq.length c.cn_send > 0 then m := !m lor ep_out;
      !m
  | Some (S_new _) | None -> 0

(* HUP is delivered whether requested or not, as in epoll(7). *)
let effective_ready t id mask = ready_mask t id land (mask lor ep_hup)

let scan t e max =
  let entries =
    Hashtbl.fold
      (fun id (mask, cookie) acc -> (id, mask, cookie) :: acc)
      e.ep_interest []
  in
  let entries =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries
  in
  let rec collect n acc = function
    | [] -> List.rev acc
    | _ when n >= max -> List.rev acc
    | (id, mask, cookie) :: rest ->
        let r = effective_ready t id mask in
        if r <> 0 then collect (n + 1) ((cookie, r) :: acc) rest
        else collect n acc rest
  in
  collect 0 [] entries

let epoll_wait t ~ep ~max =
  charge t;
  Kstats.incr t.st_epoll_waits;
  match Hashtbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e ->
      pump t;
      let r = scan t e max in
      if r <> [] || Heap.is_empty t.heap then Ok r
      else begin
        (* Nothing ready: sleep on the wait queue until the traffic
           generator wakes us.  Only sockets an event touched are
           re-checked, so a 10k-interest set is not rescanned per
           event. *)
        let p = Kernel.current t.kn in
        let saved = p.Kproc.state in
        p.Kproc.state <- Kproc.Blocked;
        let woken = ref false in
        while (not !woken) && not (Heap.is_empty t.heap) do
          let touched = advance_and_process t in
          if
            List.exists
              (fun id ->
                match Hashtbl.find_opt e.ep_interest id with
                | Some (mask, _) -> effective_ready t id mask <> 0
                | None -> false)
              touched
          then woken := true
        done;
        p.Kproc.state <- saved;
        Kstats.incr t.st_epoll_wakeups;
        Ok (scan t e max)
      end

(* ---------- traffic generation ---------- *)

module Traffic = struct
  type spec = {
    port : int;
    conns : int;
    requests_per_conn : int;
    pipeline : int;
    start : int;
    spacing : int;
    think : int;
    req_of : conn:int -> req:int -> string;
  }

  let default =
    {
      port = 80;
      conns = 100;
      requests_per_conn = 2;
      pipeline = 2;
      start = 1_000;
      spacing = 2_000;
      think = 0;
      req_of = (fun ~conn ~req -> Printf.sprintf "GET %d:%d\n" conn req);
    }

  let install t spec =
    if spec.conns <= 0 || spec.requests_per_conn <= 0 then
      invalid_arg "Knet.Traffic.install";
    let ps =
      {
        ps_conns = spec.conns;
        ps_completed = 0;
        ps_responses = 0;
        ps_drops = 0;
        ps_retrans = 0;
        ps_digests = Array.make spec.conns "";
      }
    in
    Hashtbl.replace t.traffic spec.port ps;
    for i = 0 to spec.conns - 1 do
      let cl =
        {
          cl_seq = i;
          cl_port = spec.port;
          cl_total = spec.requests_per_conn;
          cl_pipeline = max 1 spec.pipeline;
          cl_think = spec.think;
          cl_req_of = (fun req -> spec.req_of ~conn:i ~req);
          cl_conn = -1;
          cl_sent = 0;
          cl_done = 0;
          cl_hdr = Bytes.create 8;
          cl_hdr_got = 0;
          cl_body_left = 0;
          cl_sent_at = Queue.create ();
          cl_span = Queue.create ();
          cl_txq = [];
          cl_resp = Buffer.create 256;
          cl_finished = false;
          cl_fails = 0;
        }
      in
      push_ev t (now t + spec.start + (i * spec.spacing)) (Ev_connect cl)
    done

  let completed t ~port =
    match port_state t port with Some ps -> ps.ps_completed | None -> 0

  let responses t ~port =
    match port_state t port with Some ps -> ps.ps_responses | None -> 0

  let drops t ~port =
    match port_state t port with Some ps -> ps.ps_drops | None -> 0

  let retransmits t ~port =
    match port_state t port with Some ps -> ps.ps_retrans | None -> 0

  let digest t ~port =
    match port_state t port with
    | Some ps ->
        Digest.to_hex
          (Digest.string (String.concat "," (Array.to_list ps.ps_digests)))
    | None -> Digest.to_hex (Digest.string "")
end
