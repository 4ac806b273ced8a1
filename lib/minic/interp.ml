(* Mini-C interpreter over simulated memory.

   All addressable data (globals, arrays, address-taken locals, the heap,
   string literals) lives in a region of a [Ksim.Address_space.t], so a
   stray pointer produces a real simulated-hardware fault, KGCC's object
   map can track genuine addresses, and Kefence guardian pages work
   unmodified.  Scalar locals whose address is never taken live in
   registers (slots of the call's frame) — the same distinction KGCC's
   stack-object heuristic exploits.

   Every evaluated node charges [cpu_op] virtual cycles, so instrumented
   code (which executes more nodes) is slower in simulated time exactly
   as it would be on hardware.

   [load_program] compiles each function once into OCaml closures.  All
   the facts a node needs that do not change between runs are fixed at
   load time: which frame slot or global address a name denotes, the
   node's fault pc, element type and pointer scale, whether a local is
   addressable, and the compiled target of a call to one of the
   program's own functions.  Running code then only executes closures,
   with the same charges, memory accesses and object events, in the same
   order, as a walk over the AST would produce.

   Two load-time folds keep the closures few and cheap without moving
   any of that.  A leaf operand (a register local or a constant) is read
   inline by its parent rather than through a closure of its own, and
   charges with nothing observable between them (a node's own charge,
   its first child's, a leaf's) are taken at once by [charge_n]. *)

exception Runtime_error of string * Ast.loc
exception Step_limit

let rt_err loc fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, loc))) fmt

type obj_kind = Stack | Heap | Global | Literal

let pp_obj_kind ppf k =
  Fmt.string ppf
    (match k with
    | Stack -> "stack"
    | Heap -> "heap"
    | Global -> "global"
    | Literal -> "literal")

type obj_event =
  | Obj_alloc of { base : int; size : int; kind : obj_kind; name : string }
  | Obj_free of { base : int; kind : obj_kind }

(* One activation's locals, indexed by the slots fixed at load time: a
   register local's value, or the stack address of an addressable one.
   Parameters occupy the first slots, in order. *)
type frame = int array

(* A compiled function.  Every function of a program gets its record
   before any body is compiled, so a call binds to its target even when
   the target is defined later. *)
type func = {
  src : Ast.func;
  mutable nslots : int;
  mutable invoke : frame -> int;  (* after the depth and arity checks *)
}

type extern_fn = t -> int list -> int

and t = {
  space : Ksim.Address_space.t;
  clock : Ksim.Sim_clock.t;
  cost : Ksim.Cost_model.t;
  base : int;
  limit : int;
  mutable brk : int;                    (* heap grows up from base *)
  mutable sp : int;                     (* stack grows down from limit *)
  literals : (string, int) Hashtbl.t;
  externs : (string, extern_fn) Hashtbl.t;
  mutable funcs : (string, func) Hashtbl.t;  (* the loaded program *)
  heap_live : (int, int) Hashtbl.t;     (* addr -> size *)
  mutable on_obj : obj_event -> unit;
  mutable on_backedge : unit -> unit;
  output : Buffer.t;
  mutable steps : int;
  mutable max_steps : int;
  mutable depth : int;
}

exception Return_exc of int
exception Break_exc
exception Continue_exc

let create ~space ~clock ~cost ~base_vpn ~pages =
  let page_size = Ksim.Address_space.page_size space in
  Ksim.Address_space.map_fresh space ~vpn:base_vpn ~npages:pages ~writable:true;
  let base = base_vpn * page_size in
  let limit = base + (pages * page_size) in
  {
    space;
    clock;
    cost;
    base;
    limit;
    brk = base;
    sp = limit;
    literals = Hashtbl.create 32;
    externs = Hashtbl.create 32;
    funcs = Hashtbl.create 1;
    heap_live = Hashtbl.create 64;
    on_obj = (fun _ -> ());
    on_backedge = (fun () -> ());
    output = Buffer.create 256;
    steps = 0;
    max_steps = max_int;
    depth = 0;
  }

let space t = t.space
let output t = Buffer.contents t.output
let clear_output t = Buffer.clear t.output
let steps t = t.steps
let set_max_steps t n = t.max_steps <- n
let set_on_obj t f = t.on_obj <- f
let set_on_backedge t f = t.on_backedge <- f

let register_extern t name f = Hashtbl.replace t.externs name f
let has_extern t name = Hashtbl.mem t.externs name

let[@inline] charge t =
  t.steps <- t.steps + 1;
  if t.steps > t.max_steps then raise Step_limit;
  Ksim.Sim_clock.advance t.clock t.cost.Ksim.Cost_model.cpu_op

(* [n] adjacent charges with nothing observable between them, as one
   when the step budget covers all of them.  Otherwise they are taken
   one by one, so [Step_limit] fires at the same step with the same
   clock as [n] separate charges. *)
let[@inline] charge_n t n =
  if t.steps + n <= t.max_steps then begin
    t.steps <- t.steps + n;
    Ksim.Sim_clock.advance t.clock (n * t.cost.Ksim.Cost_model.cpu_op)
  end
  else
    for _ = 1 to n do
      charge t
    done

let align8 n = (n + 7) land lnot 7

exception Out_of_interp_memory

let alloc_heap t size =
  let size = align8 (max 1 size) in
  if t.brk + size > t.sp then raise Out_of_interp_memory;
  let addr = t.brk in
  t.brk <- t.brk + size;
  addr

let alloc_stack t size =
  let size = align8 (max 1 size) in
  if t.sp - size < t.brk then raise Out_of_interp_memory;
  t.sp <- t.sp - size;
  t.sp

(* Stack frees are LIFO: a free at the top of the stack restores sp. *)
let free_stack t addr size =
  t.on_obj (Obj_free { base = addr; kind = Stack });
  if addr = t.sp then t.sp <- t.sp + align8 size

(* Allocate a named long-lived buffer on the interpreter heap, visible to
   object-map observers (KGCC) like any malloc'd object.  Host-side
   embedders (e.g. the journalfs module) use this for their work buffers. *)
let alloc_buffer t ~name size =
  let addr = alloc_heap t size in
  Hashtbl.replace t.heap_live addr size;
  t.on_obj (Obj_alloc { base = addr; size; kind = Heap; name });
  addr

(* --- memory accessors (all through the simulated MMU) ----------------- *)

(* A fault pc, passed on to the MMU as the option its accessors take so
   a compiled node hands over the same value on every access. *)
let loc_pc (loc : Ast.loc) = Some (Printf.sprintf "%s:%d" loc.Ast.file loc.Ast.line)

let read_cstr t pc addr =
  let buf = Buffer.create 16 in
  let rec go a =
    let c = Ksim.Address_space.read_u8 ?pc t.space ~addr:a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

let write_cstr t pc addr s =
  Ksim.Address_space.write_string ?pc t.space ~addr (s ^ "\000")

let read_c_string t ~loc ~addr = read_cstr t (loc_pc loc) addr
let write_c_string t ~loc ~addr s = write_cstr t (loc_pc loc) addr s

let builtin_pc = loc_pc Ast.no_loc

let intern_literal t s =
  match Hashtbl.find_opt t.literals s with
  | Some addr -> addr
  | None ->
      let addr = alloc_heap t (String.length s + 1) in
      write_cstr t builtin_pc addr s;
      Hashtbl.replace t.literals s addr;
      t.on_obj
        (Obj_alloc
           { base = addr; size = String.length s + 1; kind = Literal; name = "<literal>" });
      addr

(* A store of a value of type [ty]. *)
let store_fn t pc : Ast.ty -> int -> int -> unit = function
  | Ast.Tchar -> fun addr v -> Ksim.Address_space.write_u8 ?pc t.space ~addr v
  | Ast.Tvoid | Ast.Tint | Ast.Tptr _ | Ast.Tarray _ ->
      fun addr v -> Ksim.Address_space.write_int ?pc t.space ~addr v

(* Load a value of type [ty] from [addr]; an array decays to its base
   address without an access. *)
let[@inline] load t pc ty addr =
  match ty with
  | Ast.Tchar -> Ksim.Address_space.read_u8 ?pc t.space ~addr
  | Ast.Tarray _ -> addr
  | Ast.Tvoid | Ast.Tint | Ast.Tptr _ -> Ksim.Address_space.read_int ?pc t.space ~addr

(* --- builtins ----------------------------------------------------------- *)

let builtin t loc pc name args =
  let charge_bytes n =
    Ksim.Sim_clock.advance t.clock (n * t.cost.Ksim.Cost_model.cpu_op / 4)
  in
  match (name, args) with
  | "malloc", [ size ] ->
      let addr = alloc_heap t size in
      Hashtbl.replace t.heap_live addr size;
      t.on_obj (Obj_alloc { base = addr; size; kind = Heap; name = "<malloc>" });
      Some addr
  | "free", [ addr ] ->
      if not (Hashtbl.mem t.heap_live addr) then
        rt_err loc "free of non-heap address 0x%x" addr;
      Hashtbl.remove t.heap_live addr;
      t.on_obj (Obj_free { base = addr; kind = Heap });
      Some 0
  | "strlen", [ addr ] ->
      let s = read_cstr t pc addr in
      charge_bytes (String.length s);
      Some (String.length s)
  | "strcpy", [ dst; src ] ->
      let s = read_cstr t pc src in
      charge_bytes (String.length s);
      write_cstr t pc dst s;
      Some dst
  | "strcmp", [ a; b ] ->
      let sa = read_cstr t pc a in
      let sb = read_cstr t pc b in
      charge_bytes (min (String.length sa) (String.length sb));
      Some (compare sa sb)
  | "memcpy", [ dst; src; n ] ->
      if n > 0 then begin
        let data = Ksim.Address_space.read_bytes ?pc t.space ~addr:src ~len:n in
        Ksim.Address_space.write_bytes ?pc t.space ~addr:dst data;
        charge_bytes n
      end;
      Some dst
  | "memset", [ dst; c; n ] ->
      if n > 0 then begin
        Ksim.Address_space.write_bytes ?pc t.space ~addr:dst
          (Bytes.make n (Char.chr (c land 0xff)));
        charge_bytes n
      end;
      Some dst
  | "putchar", [ c ] ->
      Buffer.add_char t.output (Char.chr (c land 0xff));
      Some c
  | "print_int", [ v ] ->
      Buffer.add_string t.output (string_of_int v);
      Some 0
  | "print_str", [ addr ] ->
      Buffer.add_string t.output (read_cstr t pc addr);
      Some 0
  | ( ( "malloc" | "free" | "strlen" | "strcpy" | "strcmp" | "memcpy"
      | "memset" | "putchar" | "print_int" | "print_str" ),
      _ ) ->
      rt_err loc "bad arity for builtin %s" name
  | _ -> None

(* --- compilation -------------------------------------------------------- *)

(* What a name denotes, fixed at load time. *)
type binding =
  | Reg of int * Ast.ty   (* frame slot holding the value *)
  | Stk of int * Ast.ty   (* frame slot holding the stack address *)
  | Glob of int * Ast.ty  (* the global's address *)

(* A compiled lvalue: a register slot, or code computing an address. *)
type lval = Lreg of int * Ast.ty | Lmem of (frame -> int) * Ast.ty

(* A compiled operand.  A leaf (a register local, or an int, char or
   sizeof constant) costs one [cpu_op] charge to read and nothing else
   observable, so the parent node takes that charge together with its
   own and reads the value inline instead of calling code for it. *)
type operand =
  | Leaf of int * int  (* frame slot, or -1 for the constant that follows *)
  | Node of (frame -> int)

let[@inline] leaf f slot k = if slot < 0 then k else f.(slot)

(* A binop's operator with its pointer scale, fixed at load time.
   [apply] is inlined into the node's code, so applying the operator is
   a branch, not a closure call. *)
type arith =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | Band | Bor | Bxor | Shl | Shr
  | Ptr_add of int       (* pointer + int, the int scaled *)
  | Int_ptr_add of int   (* int + pointer, the int scaled *)
  | Ptr_sub of int       (* pointer - int, the int scaled *)
  | Ptr_diff of int      (* (pointer - pointer) / scale *)

(* Compile-time state for one function.  The bindings in scope travel
   separately as an [env] list, innermost and latest first; names not in
   it are the program's globals. *)
type ctx = {
  t : t;
  info : Typecheck.info;
  fname : string;
  globals : (string, binding) Hashtbl.t;
  targets : (string, func) Hashtbl.t;
  mutable nslots : int;
}

let new_slot c =
  let s = c.nslots in
  c.nslots <- s + 1;
  s

(* [load_program] typechecks before compiling, so every name is bound,
   every dereferenced or indexed expression has a pointer type and every
   assigned or address-taken expression is an lvalue; a violation is a
   typechecker bug, reported at load time. *)
let ill_typed (e : Ast.expr) what =
  Fmt.invalid_arg "Interp: %a: %s" Ast.pp_loc e.Ast.eloc what

let lookup c env (e : Ast.expr) name =
  match List.assoc_opt name env with
  | Some b -> b
  | None -> (
      match Hashtbl.find_opt c.globals name with
      | Some b -> b
      | None -> ill_typed e ("unbound variable " ^ name))

let ety (e : Ast.expr) =
  match e.Ast.ety with Some ty -> ty | None -> Ast.Tint

(* The element type of a pointer-typed expression. *)
let elem_ty (e : Ast.expr) =
  match ety e with
  | Ast.Tptr ty | Ast.Tarray (ty, _) -> ty
  | _ -> ill_typed e "expected a pointer"

let of_bool b = if b then 1 else 0

let[@inline] apply loc op va vb =
  match op with
  | Add -> va + vb
  | Sub -> va - vb
  | Mul -> va * vb
  | Div -> if vb = 0 then rt_err loc "division by zero"; va / vb
  | Mod -> if vb = 0 then rt_err loc "modulo by zero"; va mod vb
  | Eq -> of_bool (va = vb)
  | Ne -> of_bool (va <> vb)
  | Lt -> of_bool (va < vb)
  | Le -> of_bool (va <= vb)
  | Gt -> of_bool (va > vb)
  | Ge -> of_bool (va >= vb)
  | Band -> va land vb
  | Bor -> va lor vb
  | Bxor -> va lxor vb
  | Shl -> va lsl vb
  | Shr -> va asr vb
  | Ptr_add scale -> va + (vb * scale)
  | Int_ptr_add scale -> (va * scale) + vb
  | Ptr_sub scale -> va - (vb * scale)
  | Ptr_diff scale -> (va - vb) / scale

(* The operator of a non-logical binop, given its operand types. *)
let arith_of op ta tb =
  match (op, ta, tb) with
  | Ast.Add, (Ast.Tptr e | Ast.Tarray (e, _)), _ -> Ptr_add (Ast.sizeof e)
  | Ast.Add, _, (Ast.Tptr e | Ast.Tarray (e, _)) -> Int_ptr_add (Ast.sizeof e)
  | Ast.Add, _, _ -> Add
  | Ast.Sub, (Ast.Tptr e | Ast.Tarray (e, _)), (Ast.Tptr _ | Ast.Tarray _) ->
      Ptr_diff (Ast.sizeof e)
  | Ast.Sub, (Ast.Tptr e | Ast.Tarray (e, _)), _ -> Ptr_sub (Ast.sizeof e)
  | Ast.Sub, _, _ -> Sub
  | Ast.Mul, _, _ -> Mul
  | Ast.Div, _, _ -> Div
  | Ast.Mod, _, _ -> Mod
  | Ast.Eq, _, _ -> Eq
  | Ast.Ne, _, _ -> Ne
  | Ast.Lt, _, _ -> Lt
  | Ast.Le, _, _ -> Le
  | Ast.Gt, _, _ -> Gt
  | Ast.Ge, _, _ -> Ge
  | Ast.Bitand, _, _ -> Band
  | Ast.Bitor, _, _ -> Bor
  | Ast.Bitxor, _, _ -> Bxor
  | Ast.Shl, _, _ -> Shl
  | Ast.Shr, _, _ -> Shr
  | (Ast.Logand | Ast.Logor), _, _ -> invalid_arg "Interp.arith_of: logical operator"

let check_depth t fn =
  if t.depth > 2_000 then
    rt_err fn.src.Ast.floc "call depth limit exceeded in %s" fn.src.Ast.fname

let arity_mismatch fn = rt_err fn.src.Ast.floc "%s: arity mismatch" fn.src.Ast.fname

(* Charges owed.  Every node's code starts with its own charge.  When a
   node's first act after that charge is to run a child node's code, the
   two charges are adjacent with nothing observable between them, so the
   parent leaves its charge to the child: each [compile_*] below takes
   [owed], the number of such charges handed down by the enclosing
   nodes, and the code takes them together with its own first charge in
   one [charge_n].  [Step_limit] still fires at the same step with the
   same clock (see [charge_n]). *)

let const t n k _ = charge_n t n; k

let rec compile_expr c env ?(owed = 0) (e : Ast.expr) : frame -> int =
  let t = c.t in
  let n = owed + 1 in
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.Int_lit k -> const t n k
  | Ast.Char_lit ch -> const t n (Char.code ch)
  | Ast.Str_lit s ->
      (* interned on first evaluation, as a walk would *)
      let addr = ref (-1) in
      fun _ ->
        charge_n t n;
        if !addr < 0 then addr := intern_literal t s;
        !addr
  | Ast.Sizeof_ty ty -> const t n (Ast.sizeof ty)
  | Ast.Var name -> (
      let pc = loc_pc loc in
      match lookup c env e name with
      | Reg (s, _) -> fun f -> charge_n t n; f.(s)
      | Stk (s, ty) -> fun f -> charge_n t n; load t pc ty f.(s)
      | Glob (a, ty) -> fun _ -> charge_n t n; load t pc ty a)
  | Ast.Unop (op, a) -> (
      let ca = compile_expr c env ~owed:n a in
      match op with
      | Ast.Neg -> fun f -> -ca f
      | Ast.Lognot -> fun f -> of_bool (ca f = 0)
      | Ast.Bitnot -> fun f -> lnot (ca f))
  | Ast.Deref a ->
      let pc = loc_pc loc and ty = elem_ty a in
      let ca = compile_expr c env ~owed:n a in
      fun f -> load t pc ty (ca f)
  | Ast.Addr_of a -> (
      match compile_lval c env a with
      | Lmem (addr, _) -> fun f -> charge_n t n; addr f
      | Lreg _ ->
          (* [&(char)x] is an lvalue the typechecker does not mark *)
          fun _ -> charge_n t n; rt_err loc "address of register variable")
  | Ast.Index (a, i) -> (
      let pc = loc_pc loc and ty = elem_ty a in
      match (leaf_of c env a, leaf_of c env i) with
      | Some (sa, ka), Some (si, ki) ->
          let scale = Ast.sizeof ty in
          fun f ->
            charge_n t (n + 2);
            load t pc ty (leaf f sa ka + (leaf f si ki * scale))
      | _ ->
          let addr = index_addr c env ~owed:n a i ty in
          fun f -> load t pc ty (addr f))
  | Ast.Binop (op, a, b) -> compile_binop c env ~owed:n loc op a b
  | Ast.Assign (lhs, rhs) -> (
      (* the right-hand side is evaluated before the lvalue *)
      let cr = compile_expr c env ~owed:n rhs in
      match compile_lval c env lhs with
      | Lreg (s, ty) ->
          let mask = if ty = Ast.Tchar then 0xff else -1 in
          fun f ->
            let v = cr f land mask in
            f.(s) <- v;
            v
      | Lmem (addr, ty) ->
          let store = store_fn t (loc_pc loc) ty in
          fun f ->
            let v = cr f in
            store (addr f) v;
            v)
  | Ast.Call (name, args) -> compile_call c env ~owed:n loc name args
  | Ast.Cast (ty, a) ->
      let ca = compile_expr c env ~owed:n a in
      let mask = if ty = Ast.Tchar then 0xff else -1 in
      fun f -> ca f land mask
  | Ast.Cond (cond, a, b) ->
      let cc = compile_expr c env ~owed:n cond in
      let ca = compile_expr c env a in
      let cb = compile_expr c env b in
      fun f -> if cc f <> 0 then ca f else cb f

(* [owed] here includes the binop's own charge. *)
and compile_binop c env ~owed loc op a b =
  let t = c.t in
  match op with
  | Ast.Logand ->
      let ca = compile_expr c env ~owed a in
      let cb = compile_expr c env b in
      fun f -> if ca f <> 0 then of_bool (cb f <> 0) else 0
  | Ast.Logor ->
      let ca = compile_expr c env ~owed a in
      let cb = compile_expr c env b in
      fun f -> if ca f <> 0 then 1 else of_bool (cb f <> 0)
  | _ -> (
      let op = arith_of op (ety a) (ety b) in
      (* both operands are evaluated, left first, before the operator *)
      match (operand c env ~owed a, operand c env b) with
      | Leaf (sa, ka), Leaf (sb, kb) ->
          fun f ->
            charge_n t (owed + 2);
            apply loc op (leaf f sa ka) (leaf f sb kb)
      | Leaf (sa, ka), Node cb ->
          fun f ->
            charge_n t (owed + 1);
            let va = leaf f sa ka in
            apply loc op va (cb f)
      | Node ca, Leaf (sb, kb) ->
          fun f ->
            let va = ca f in
            charge t;
            apply loc op va (leaf f sb kb)
      | Node ca, Node cb ->
          fun f ->
            let va = ca f in
            apply loc op va (cb f))

(* A leaf is an operand [compile_expr] would compile to a bare charge
   and read: a constant, or a name the same env-then-globals lookup
   binds to a register (a global stays a memory load).  Returns its
   frame slot, or -1 and the constant. *)
and leaf_of c env (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Int_lit k -> Some (-1, k)
  | Ast.Char_lit ch -> Some (-1, Char.code ch)
  | Ast.Sizeof_ty ty -> Some (-1, Ast.sizeof ty)
  | Ast.Var name -> (
      match lookup c env e name with
      | Reg (s, _) -> Some (s, 0)
      | Stk _ | Glob _ -> None)
  | _ -> None

(* A node's code takes the [owed] charges itself; a leaf's reader takes
   none, so its parent takes [owed] and the leaf's charge. *)
and operand c env ?owed e =
  match leaf_of c env e with
  | Some (s, k) -> Leaf (s, k)
  | None -> Node (compile_expr c env ?owed e)

(* Lvalue nodes are not charged themselves; their subexpressions are. *)
and compile_lval c env (e : Ast.expr) : lval =
  match e.Ast.e with
  | Ast.Var name -> (
      match lookup c env e name with
      | Reg (s, ty) -> Lreg (s, ty)
      | Stk (s, ty) -> Lmem ((fun f -> f.(s)), ty)
      | Glob (a, ty) -> Lmem ((fun _ -> a), ty))
  | Ast.Deref a -> Lmem (compile_expr c env a, elem_ty a)
  | Ast.Index (a, i) ->
      let ty = elem_ty a in
      Lmem (index_addr c env ~owed:0 a i ty, ty)
  | Ast.Cast (ty, inner) -> (
      match compile_lval c env inner with
      | Lreg (s, _) -> Lreg (s, ty)
      | Lmem (addr, _) -> Lmem (addr, ty))
  | _ -> ill_typed e "not an lvalue"

(* The address of [a[i]]: base, then index, scaled by the element size. *)
and index_addr c env ~owed a i ty =
  let t = c.t in
  let scale = Ast.sizeof ty in
  match (operand c env ~owed a, operand c env i) with
  | Leaf (sa, ka), Leaf (si, ki) ->
      fun f ->
        charge_n t (owed + 2);
        leaf f sa ka + (leaf f si ki * scale)
  | Leaf (sa, ka), Node ci ->
      fun f ->
        charge_n t (owed + 1);
        let base = leaf f sa ka in
        base + (ci f * scale)
  | Node ca, Leaf (si, ki) ->
      fun f ->
        let base = ca f in
        charge t;
        base + (leaf f si ki * scale)
  | Node ca, Node ci ->
      fun f ->
        let base = ca f in
        base + (ci f * scale)

(* A call evaluates its arguments left to right, then runs the program's
   function of that name if there is one (bound now), else a registered
   extern, else a builtin (both looked up when the call runs).  [owed]
   includes the call's own charge; the first argument takes it, or the
   call itself when there is none. *)
and compile_call c env ~owed loc name args =
  let t = c.t in
  let cargs =
    List.mapi (fun k a -> compile_expr c env ~owed:(if k = 0 then owed else 0) a) args
  in
  let owed = if args = [] then owed else 0 in
  match Hashtbl.find_opt c.targets name with
  | Some fn when List.length args = List.length fn.src.Ast.params ->
      let cargs = Array.of_list cargs in
      fun f ->
        if owed > 0 then charge_n t owed;
        let callee = Array.make fn.nslots 0 in
        for k = 0 to Array.length cargs - 1 do
          callee.(k) <- cargs.(k) f
        done;
        check_depth t fn;
        fn.invoke callee
  | Some fn ->
      fun f ->
        if owed > 0 then charge_n t owed;
        List.iter (fun a -> ignore (a f)) cargs;
        check_depth t fn;
        arity_mismatch fn
  | None -> (
      let pc = loc_pc loc in
      fun f ->
        if owed > 0 then charge_n t owed;
        let vals = List.map (fun a -> a f) cargs in
        match Hashtbl.find t.externs name with
        | ext -> ext t vals
        | exception Not_found -> (
            match builtin t loc pc name vals with
            | Some v -> v
            | None -> rt_err loc "unknown function %s" name))

(* --- statements --------------------------------------------------------- *)

(* Compile one statement; returns its code, the environment the
   statements after it see, and the slot and size of the stack object
   it allocates, if any. *)
and compile_stmt c env ?(owed = 0) (s : Ast.stmt) =
  let t = c.t in
  let n = owed + 1 in
  let plain code = (code, env, None) in
  match s.Ast.s with
  | Ast.Sdecl (ty, name, init) ->
      let addressable =
        Typecheck.is_addressable c.info ~fname:c.fname ~var:name
        || (match ty with Ast.Tarray _ -> true | _ -> false)
      in
      let slot = new_slot c in
      let env =
        (name, if addressable then Stk (slot, ty) else Reg (slot, ty)) :: env
      in
      (* the name is in scope in its own initializer *)
      if addressable then
        let init = Option.map (compile_expr c env) init in
        let size = Ast.sizeof ty in
        let store = store_fn t (loc_pc s.Ast.sloc) ty in
        ( (fun f ->
            charge_n t n;
            let addr = alloc_stack t size in
            f.(slot) <- addr;
            t.on_obj (Obj_alloc { base = addr; size; kind = Stack; name });
            match init with Some init -> store addr (init f) | None -> ()),
          env,
          Some (slot, size) )
      else
        (* a register local starts at 0 each time its declaration runs *)
        ( (match init with
          | Some init ->
              let init = compile_expr c env ~owed:n init in
              fun f ->
                f.(slot) <- 0;
                f.(slot) <- init f
          | None -> fun f -> charge_n t n; f.(slot) <- 0),
          env,
          None )
  | Ast.Sexpr e ->
      let ce = compile_expr c env ~owed:n e in
      plain (fun f -> ignore (ce f))
  | Ast.Sif (cond, a, b) ->
      let cc = compile_expr c env ~owed:n cond in
      let ca = compile_block c env a in
      let cb = compile_block c env b in
      plain (fun f -> if cc f <> 0 then ca f else cb f)
  | Ast.Swhile (cond, body) ->
      let cc = compile_expr c env cond in
      let body = compile_block c env body in
      plain (fun f ->
          charge_n t n;
          try
            while cc f <> 0 do
              (try body f with Continue_exc -> ());
              t.on_backedge ()
            done
          with Break_exc -> ())
  | Ast.Sfor (cond, body, step) ->
      (* the step runs after the body, also on continue *)
      let cc = compile_expr c env cond in
      let body = compile_block c env body in
      let step = compile_block c env step in
      plain (fun f ->
          charge_n t n;
          try
            while cc f <> 0 do
              (try body f with Continue_exc -> ());
              step f;
              t.on_backedge ()
            done
          with Break_exc -> ())
  | Ast.Sreturn (Some e) ->
      let ce = compile_expr c env ~owed:n e in
      plain (fun f -> raise_notrace (Return_exc (ce f)))
  | Ast.Sreturn None -> plain (fun _ -> charge_n t n; raise_notrace (Return_exc 0))
  | Ast.Sbreak -> plain (fun _ -> charge_n t n; raise_notrace Break_exc)
  | Ast.Scontinue -> plain (fun _ -> charge_n t n; raise_notrace Continue_exc)
  | Ast.Sblock body -> plain (compile_block c env ~owed:n body)
  | Ast.Scosy_start | Ast.Scosy_end -> plain (fun _ -> charge_n t n)

(* A block opens a scope.  Its addressable locals are freed when it is
   left, normally or by an exception, most recent first; their slots
   hold -1 until their declaration runs.  The first statement takes
   [owed]. *)
and compile_block c env ?(owed = 0) stmts : frame -> unit =
  let t = c.t in
  let rec go env owed = function
    | [] -> ([], [])
    | s :: rest ->
        let code, env, stack = compile_stmt c env ~owed s in
        let codes, stacks = go env 0 rest in
        (code :: codes, Option.to_list stack @ stacks)
  in
  let codes, stacks = go env owed stmts in
  let body =
    match codes with
    | [] -> if owed > 0 then fun _ -> charge_n t owed else fun _ -> ()
    | [ s ] -> s
    | [ s1; s2 ] -> fun f -> s1 f; s2 f
    | codes ->
        let codes = Array.of_list codes in
        fun f ->
          for k = 0 to Array.length codes - 1 do
            codes.(k) f
          done
  in
  match Array.of_list stacks with
  | [||] -> body
  | stacks ->
      let release f =
        for k = Array.length stacks - 1 downto 0 do
          let slot, size = stacks.(k) in
          if f.(slot) >= 0 then free_stack t f.(slot) size
        done
      in
      fun f ->
        for k = 0 to Array.length stacks - 1 do
          f.(fst stacks.(k)) <- -1
        done;
        match body f with
        | () -> release f
        | exception e -> release f; raise e

(* A function's parameters take slots 0..n-1.  Addressable ones are
   copied to the stack on entry, in order, and freed on exit, most
   recent first. *)
let compile_func c fn =
  let t = c.t in
  let src = fn.src in
  let env, stacked =
    List.fold_left
      (fun (env, stacked) (ty, name) ->
        let slot = new_slot c in
        if Typecheck.is_addressable c.info ~fname:c.fname ~var:name then
          let store = store_fn t (loc_pc src.Ast.floc) ty in
          ((name, Stk (slot, ty)) :: env, (slot, Ast.sizeof ty, store, name) :: stacked)
        else ((name, Reg (slot, ty)) :: env, stacked))
      ([], []) src.Ast.params
  in
  let body = compile_block c env src.Ast.body in
  let stacked = Array.of_list (List.rev stacked) in
  let leave f =
    t.depth <- t.depth - 1;
    for k = Array.length stacked - 1 downto 0 do
      let slot, size, _, _ = stacked.(k) in
      free_stack t f.(slot) size
    done
  in
  fn.nslots <- c.nslots;
  fn.invoke <-
    (fun f ->
      t.depth <- t.depth + 1;
      for k = 0 to Array.length stacked - 1 do
        let slot, size, store, name = stacked.(k) in
        let v = f.(slot) in
        let addr = alloc_stack t size in
        f.(slot) <- addr;
        t.on_obj (Obj_alloc { base = addr; size; kind = Stack; name });
        store addr v
      done;
      match body f with
      | () -> leave f; 0
      | exception Return_exc v -> leave f; v
      | exception e -> leave f; raise e)

(* --- program loading --------------------------------------------------- *)

let load_program t (p : Ast.program) =
  let info = Typecheck.check p in
  let globals = Hashtbl.create 32 in
  List.iter
    (fun (ty, name, _init) ->
      let size = Ast.sizeof ty in
      let addr = alloc_heap t size in
      t.on_obj (Obj_alloc { base = addr; size; kind = Global; name });
      Hashtbl.replace globals name (Glob (addr, ty)))
    p.Ast.globals;
  (* the first definition of a name is the one that runs *)
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ast.func) ->
      if not (Hashtbl.mem funcs f.Ast.fname) then
        Hashtbl.replace funcs f.Ast.fname
          { src = f; nslots = 0; invoke = (fun _ -> 0) })
    p.Ast.funcs;
  Hashtbl.iter
    (fun fname fn -> compile_func { t; info; fname; globals; targets = funcs; nslots = 0 } fn)
    funcs;
  t.funcs <- funcs;
  p

let parse_and_load t ?(file = "<string>") src =
  load_program t (Parser.parse_program ~file src)

(* Run a named function of the loaded program. *)
let run t ?(args = []) name =
  match Hashtbl.find_opt t.funcs name with
  | None -> rt_err Ast.no_loc "no such function %s" name
  | Some fn ->
      check_depth t fn;
      if List.length args <> List.length fn.src.Ast.params then arity_mismatch fn;
      let frame = Array.make fn.nslots 0 in
      List.iteri (fun k v -> frame.(k) <- v) args;
      fn.invoke frame

let heap_live_count t = Hashtbl.length t.heap_live
