(* Binary min-heap on (due, seq) over parallel arrays.  Push and pop
   move a hole instead of swapping, writing each displaced entry once. *)

type 'a t = {
  mutable due : int array;
  mutable seq : int array;
  mutable ev : 'a array;
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy =
  {
    due = Array.make 64 0;
    seq = Array.make 64 0;
    ev = Array.make 64 dummy;
    len = 0;
    next_seq = 0;
    dummy;
  }

let is_empty h = h.len = 0
let top_due h = if h.len = 0 then max_int else h.due.(0)

let grow h =
  let cap = 2 * Array.length h.due in
  let due = Array.make cap 0 and seq = Array.make cap 0 in
  let ev = Array.make cap h.dummy in
  Array.blit h.due 0 due 0 h.len;
  Array.blit h.seq 0 seq 0 h.len;
  Array.blit h.ev 0 ev 0 h.len;
  h.due <- due;
  h.seq <- seq;
  h.ev <- ev

let less h i d s = h.due.(i) < d || (h.due.(i) = d && h.seq.(i) < s)

let move h ~src ~dst =
  h.due.(dst) <- h.due.(src);
  h.seq.(dst) <- h.seq.(src);
  h.ev.(dst) <- h.ev.(src)

let push h ~due ev =
  if h.len = Array.length h.due then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* [seq] is the largest stamp in the heap, so the new entry rises only
     past parents due strictly later *)
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && due < h.due.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move h ~src:p ~dst:!i;
    i := p
  done;
  h.due.(!i) <- due;
  h.seq.(!i) <- seq;
  h.ev.(!i) <- ev

let pop h =
  if h.len = 0 then invalid_arg "Event_heap.pop";
  let top = h.ev.(0) in
  let n = h.len - 1 in
  h.len <- n;
  let due = h.due.(n) and seq = h.seq.(n) and ev = h.ev.(n) in
  h.ev.(n) <- h.dummy;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c = if r < n && less h r h.due.(l) h.seq.(l) then r else l in
        if less h c due seq then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    h.due.(!i) <- due;
    h.seq.(!i) <- seq;
    h.ev.(!i) <- ev
  end;
  top
