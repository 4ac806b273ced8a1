(* Host probes of single layer functions, run on the workloads' own
   inputs: the ring's wire codec on the web request mix, and compound
   decode, static verification and kopt compilation on cosy_db's
   programs.  Each reports host ns and allocated words per call. *)

(* Calls [f] on every input, in passes, for 0.2 host seconds; returns
   (ns per call, words per call). *)
let per_call inputs f =
  let budget_ns = 200_000_000 in
  let n = Array.length inputs in
  let calls = ref 0 in
  let w0 = Common.gc_words () in
  let h0 = Span.now_ns () in
  while Span.now_ns () - h0 < budget_ns do
    Array.iter f inputs;
    calls := !calls + n
  done;
  let ns = Span.now_ns () - h0 in
  let words = Common.gc_words () -. w0 in
  let c = float_of_int (max 1 !calls) in
  (float_of_int ns /. c, words /. c)

(* The requests the ring variant submits for each response: the recv
   that reads the request, the 8-byte frame header, the sendfile of the
   body. *)
let web_requests (g : Gen.web) =
  let cfg = g.cfg in
  let reqs = ref [] in
  for conn = 0 to min cfg.conns 512 - 1 do
    let sock = Knet.handle_base + conn in
    for req = 0 to cfg.requests_per_conn - 1 do
      let doc = Workloads.Webserver.net_doc_index cfg ~conn ~req in
      let len = Bytes.length g.docs.(doc) in
      reqs :=
        Ksyscall.Syscall.Sendfile_sock { sock; fd = 3 + doc; off = 0; len }
        :: Ksyscall.Syscall.Send { sock; data = Gen.frame_header len }
        :: Ksyscall.Syscall.Recv { sock; len = Workloads.Webserver.net_chunk }
        :: !reqs
    done
  done;
  Array.of_list (List.rev !reqs)

let web (g : Gen.web) =
  let ns, words =
    per_call (web_requests g) (fun r ->
        ignore (Ksyscall.Syscall.decode_req (Ksyscall.Syscall.encode_req r) ~off:0))
  in
  [ ("probe.req_codec_ns", ns); ("probe.req_codec_words", words) ]

let cosy (g : Gen.cosy) =
  (* the distinct programs among the first submissions, hot and one-off *)
  let distinct = Hashtbl.create 256 in
  Array.iteri
    (fun i (s : Gen.submission) ->
      let c = s.prog.compound in
      if i < 256 then Hashtbl.replace distinct (Bytes.to_string c.Cosy.Compound.buf) c)
    g.subs;
  let compounds = Array.of_seq (Hashtbl.to_seq_values distinct) in
  let shared_size = g.shared_size in
  let decode_ns, decode_w =
    per_call compounds (fun c -> ignore (Cosy.Compound.decode c))
  in
  let verify_ns, verify_w =
    per_call compounds (fun c ->
        ignore (Kverify.Checker.verify_compound ~shared_size c))
  in
  let plans =
    Array.map
      (fun c ->
        let ops, slot_count = Cosy.Compound.decode c in
        let loops =
          match Kverify.Checker.verify_compound ~shared_size c with
          | Kverify.Checker.Verified { loops; _ } -> loops
          | Kverify.Checker.Rejected _ -> []
        in
        (ops, slot_count, loops))
      compounds
  in
  let compile_ns, compile_w =
    per_call plans (fun (ops, slot_count, loops) ->
        ignore (Kopt.Plan.compile ~shared_size ~loops ops ~slot_count))
  in
  [
    ("probe.compound_decode_ns", decode_ns);
    ("probe.compound_decode_words", decode_w);
    ("probe.checker_verify_ns", verify_ns);
    ("probe.checker_verify_words", verify_w);
    ("probe.plan_compile_ns", compile_ns);
    ("probe.plan_compile_words", compile_w);
  ]
