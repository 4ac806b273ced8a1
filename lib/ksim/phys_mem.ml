(* Physical memory: a growable pool of fixed-size frames. *)

type t = {
  page_size : int;
  mutable frames : Bytes.t option array; (* index = frame number *)
  mutable free : int list;               (* free frame numbers *)
  mutable next : int;                    (* next never-used frame *)
  mutable allocated : int;               (* live frame count *)
  mutable high_water : int;              (* peak live frame count *)
}

let create ~page_size =
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Phys_mem.create: page_size";
  {
    page_size;
    frames = Array.make 64 None;
    free = [];
    next = 0;
    allocated = 0;
    high_water = 0;
  }

let page_size t = t.page_size
let live_frames t = t.allocated
let high_water t = t.high_water

let ensure_capacity t n =
  let len = Array.length t.frames in
  if n >= len then begin
    let frames = Array.make (max (2 * len) (n + 1)) None in
    Array.blit t.frames 0 frames 0 len;
    t.frames <- frames
  end

let alloc_frame t =
  let fno =
    match t.free with
    | fno :: rest ->
        t.free <- rest;
        fno
    | [] ->
        let fno = t.next in
        t.next <- t.next + 1;
        fno
  in
  ensure_capacity t fno;
  t.frames.(fno) <- Some (Bytes.make t.page_size '\000');
  t.allocated <- t.allocated + 1;
  if t.allocated > t.high_water then t.high_water <- t.allocated;
  fno

let free_frame t fno =
  match t.frames.(fno) with
  | None -> invalid_arg "Phys_mem.free_frame: double free"
  | Some _ ->
      t.frames.(fno) <- None;
      t.free <- fno :: t.free;
      t.allocated <- t.allocated - 1

let frame t fno =
  match t.frames.(fno) with
  | Some b -> b
  | None -> invalid_arg "Phys_mem.frame: not allocated"

let read t ~frame:fno ~off ~len =
  let b = frame t fno in
  if off < 0 || len < 0 || off + len > t.page_size then
    invalid_arg "Phys_mem.read: out of frame";
  Bytes.sub b off len

let write t ~frame:fno ~off src =
  let b = frame t fno in
  let len = Bytes.length src in
  if off < 0 || off + len > t.page_size then
    invalid_arg "Phys_mem.write: out of frame";
  Bytes.blit src 0 b off len
