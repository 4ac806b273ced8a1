(* Tests for the mini-C frontend and interpreter. *)

let mk_interp ?(pages = 64) () =
  let clock = Ksim.Sim_clock.create () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let space =
    Ksim.Address_space.create ~name:"i" ~mem ~clock ~cost:Ksim.Cost_model.zero ()
  in
  Minic.Interp.create ~space ~clock ~cost:Ksim.Cost_model.zero ~base_vpn:16
    ~pages

let run_src ?(fn = "main") ?(args = []) src =
  let i = mk_interp () in
  ignore (Minic.Interp.parse_and_load i src);
  Minic.Interp.run i ~args fn

let check_run msg expected ?fn ?args src =
  Alcotest.(check int) msg expected (run_src ?fn ?args src)

(* --- lexer -------------------------------------------------------------- *)

let test_lexer_basic () =
  let toks = Minic.Lexer.tokens "int x = 42; // comment\nx += 'a';" in
  let names = List.map (fun (t, _) -> Minic.Token.to_string t) toks in
  Alcotest.(check (list string)) "tokens"
    [ "int"; "x"; "="; "42"; ";"; "x"; "+="; "'a'"; ";"; "<eof>" ]
    names

let test_lexer_string_escapes () =
  match Minic.Lexer.tokens {|"a\nb\0"|} with
  | [ (Minic.Token.STRING s, _); (Minic.Token.EOF, _) ] ->
      Alcotest.(check string) "escapes" "a\nb\000" s
  | _ -> Alcotest.fail "bad tokens"

let test_lexer_line_numbers () =
  let toks = Minic.Lexer.tokens "int\nx\n=\n1;" in
  let lines = List.map snd toks in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 4; 4; 4 ] lines

let test_lexer_comments () =
  let toks = Minic.Lexer.tokens "/* multi\nline */ 7" in
  match toks with
  | [ (Minic.Token.INT 7, line); _ ] -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "bad tokens"

let test_lexer_errors () =
  (try
     ignore (Minic.Lexer.tokens "int x = @;");
     Alcotest.fail "expected lex error"
   with Minic.Lexer.Lex_error _ -> ());
  try
    ignore (Minic.Lexer.tokens "\"unterminated");
    Alcotest.fail "expected lex error"
  with Minic.Lexer.Lex_error _ -> ()

(* --- parser ------------------------------------------------------------- *)

let test_parser_precedence () =
  check_run "mul binds tighter" 14 "int main(void) { return 2 + 3 * 4; }";
  check_run "parens" 20 "int main(void) { return (2 + 3) * 4; }";
  check_run "comparison" 1 "int main(void) { return 1 + 1 == 2; }";
  check_run "logical" 1 "int main(void) { return 1 && 2 || 0; }";
  check_run "unary minus" (-6) "int main(void) { return -2 * 3; }";
  check_run "shift" 16 "int main(void) { return 1 << 4; }";
  check_run "bitops" 6 "int main(void) { return (12 & 7) | 2; }"

let test_parser_errors () =
  (try
     ignore (Minic.Parser.parse_program "int main(void) { return 1 }");
     Alcotest.fail "expected parse error"
   with Minic.Parser.Parse_error (_, line) ->
     Alcotest.(check int) "error line" 1 line);
  try
    ignore (Minic.Parser.parse_program "int f(int) { return 1; }");
    Alcotest.fail "expected parse error"
  with Minic.Parser.Parse_error _ -> ()

let test_parser_for_desugar () =
  check_run "for loop" 45
    "int main(void) { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }"

let test_parser_cosy_markers () =
  let p =
    Minic.Parser.parse_program
      "int f(void) { COSY_START; int x = 1; COSY_END; return x; }"
  in
  match p.Minic.Ast.funcs with
  | [ f ] ->
      let kinds = List.map (fun s -> s.Minic.Ast.s) f.Minic.Ast.body in
      Alcotest.(check bool) "starts with marker" true
        (match kinds with Minic.Ast.Scosy_start :: _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected one function"

(* --- typechecker -------------------------------------------------------- *)

let tc src = Minic.Typecheck.check (Minic.Parser.parse_program src)

let test_typecheck_errors () =
  let expect_error src =
    try
      ignore (tc src);
      Alcotest.fail ("expected type error: " ^ src)
    with Minic.Typecheck.Type_error _ -> ()
  in
  expect_error "int main(void) { return y; }";
  expect_error "int main(void) { int x; int x; return 0; }";
  expect_error "int main(void) { return *4; }" |> ignore;
  expect_error "int main(void) { 4 = 5; return 0; }";
  expect_error "int main(void) { int x; return x[0]; }"

let test_addressable_analysis () =
  let info =
    tc
      {|
int f(void) {
  int plain = 1;
  int taken = 2;
  int arr[4];
  int *p = &taken;
  return plain + *p + arr[0];
}
|}
  in
  Alcotest.(check bool) "taken is addressable" true
    (Minic.Typecheck.is_addressable info ~fname:"f" ~var:"taken");
  Alcotest.(check bool) "arr is addressable" true
    (Minic.Typecheck.is_addressable info ~fname:"f" ~var:"arr");
  Alcotest.(check bool) "plain is not" false
    (Minic.Typecheck.is_addressable info ~fname:"f" ~var:"plain")

(* --- interpreter -------------------------------------------------------- *)

let test_interp_control_flow () =
  check_run "if/else" 1 "int main(void) { if (2 > 1) return 1; else return 2; }";
  check_run "while" 10
    "int main(void) { int i = 0; while (i < 10) i = i + 1; return i; }";
  check_run "break" 5
    "int main(void) { int i = 0; while (1) { if (i == 5) break; i++; } return i; }";
  check_run "continue" 25
    {|int main(void) {
       int s = 0; int i;
       for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
       return s;
     }|};
  check_run "ternary" 7 "int main(void) { return 1 ? 7 : 9; }";
  check_run "nested calls" 21
    "int add(int a, int b) { return a + b; } int main(void) { return add(add(1,2), add(8,10)); }"

let test_for_continue_regression () =
  (* continue in a for loop must still run the step (a naive while
     desugaring loops forever here) *)
  check_run "continue runs the step" 20
    {|int main(void) {
       int n = 0; int i;
       for (i = 0; i < 10; i++) {
         if (i % 2 == 1) continue;
         n += 4;
       }
       return n;
     }|};
  check_run "break skips the step" 3
    {|int main(void) {
       int i;
       for (i = 0; i < 10; i++) {
         if (i == 3) break;
       }
       return i;
     }|};
  check_run "nested for with continue" 30
    {|int main(void) {
       int s = 0; int i; int j;
       for (i = 0; i < 3; i++)
         for (j = 0; j < 10; j++) {
           if (j >= 5) continue;
           s += 2;
         }
       return s;
     }|}

let test_interp_recursion () =
  check_run "fib" 55
    "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
    ~fn:"fib" ~args:[ 10 ];
  check_run "mutual" 1
    {|int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
      int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
      int main(void) { return is_even(10); }|}

let test_interp_pointers () =
  check_run "deref assign" 43
    "int main(void) { int x = 42; int *p = &x; *p = *p + 1; return x; }";
  check_run "pointer arith" 30
    {|int main(void) {
       int a[3];
       a[0] = 10; a[1] = 20; a[2] = 30;
       int *p = a;
       p = p + 2;
       return *p;
     }|};
  check_run "pointer diff" 2
    {|int main(void) {
       int a[5];
       int *p = a;
       int *q = p + 2;
       return q - p;
     }|};
  check_run "char pointer walk" 3
    {|int main(void) {
       char *s = malloc(8);
       strcpy(s, "abc");
       int n = 0;
       while (s[n] != 0) n++;
       free(s);
       return n;
     }|}

let test_interp_globals () =
  check_run "global state" 3
    {|int counter;
      int bump(void) { counter = counter + 1; return counter; }
      int main(void) { bump(); bump(); return bump(); }|}

let test_interp_arrays_memfuncs () =
  check_run "memset/memcpy" 0
    {|int main(void) {
       char a[16];
       char b[16];
       memset(a, 7, 16);
       memcpy(b, a, 16);
       int i;
       for (i = 0; i < 16; i++) if (b[i] != 7) return 1;
       return 0;
     }|};
  check_run "strcmp" 0
    {|int main(void) { return strcmp("same", "same"); }|}

let test_interp_output () =
  let i = mk_interp () in
  ignore
    (Minic.Interp.parse_and_load i
       {|int main(void) { print_str("n="); print_int(42); putchar(10); return 0; }|});
  ignore (Minic.Interp.run i "main");
  Alcotest.(check string) "output" "n=42\n" (Minic.Interp.output i)

let test_interp_runtime_errors () =
  (try
     ignore (run_src "int main(void) { return 1 / 0; }");
     Alcotest.fail "expected div by zero"
   with Minic.Interp.Runtime_error (m, _) ->
     Alcotest.(check bool) "message" true
       (m = "division by zero"));
  (try
     ignore (run_src "int main(void) { return nosuch(); }");
     Alcotest.fail "expected unknown function"
   with Minic.Interp.Runtime_error _ -> ());
  try
    ignore (run_src "int main(void) { free(1234); return 0; }");
    Alcotest.fail "expected bad free"
  with Minic.Interp.Runtime_error _ -> ()

let test_interp_step_limit () =
  let i = mk_interp () in
  ignore (Minic.Interp.parse_and_load i "int main(void) { while (1) {} return 0; }");
  Minic.Interp.set_max_steps i 10_000;
  try
    ignore (Minic.Interp.run i "main");
    Alcotest.fail "expected step limit"
  with Minic.Interp.Step_limit -> ()

let test_interp_wild_pointer_faults () =
  let i = mk_interp () in
  ignore
    (Minic.Interp.parse_and_load i
       "int main(void) { int *p = (int*)99999999; return *p; }");
  try
    ignore (Minic.Interp.run i "main");
    Alcotest.fail "expected hardware fault"
  with Ksim.Fault.Fault _ -> ()

let test_interp_externs () =
  let i = mk_interp () in
  Minic.Interp.register_extern i "host_mul" (fun _ args ->
      match args with [ a; b ] -> a * b | _ -> -1);
  ignore (Minic.Interp.parse_and_load i "int main(void) { return host_mul(6, 7); }");
  Alcotest.(check int) "extern" 42 (Minic.Interp.run i "main")

let test_interp_obj_events () =
  let i = mk_interp () in
  let allocs = ref [] in
  let frees = ref 0 in
  Minic.Interp.set_on_obj i (fun ev ->
      match ev with
      | Minic.Interp.Obj_alloc { name; kind; size; _ } ->
          allocs := (name, kind, size) :: !allocs
      | Minic.Interp.Obj_free _ -> incr frees);
  ignore
    (Minic.Interp.parse_and_load i
       {|int g;
         int main(void) {
           int arr[4];
           char *h = malloc(10);
           free(h);
           return arr[0] + g;
         }|});
  ignore (Minic.Interp.run i "main");
  let kinds = List.map (fun (_, k, _) -> k) !allocs in
  Alcotest.(check bool) "global registered" true
    (List.mem Minic.Interp.Global kinds);
  Alcotest.(check bool) "stack registered" true
    (List.mem Minic.Interp.Stack kinds);
  Alcotest.(check bool) "heap registered" true (List.mem Minic.Interp.Heap kinds);
  (* heap free + stack array free at scope exit *)
  Alcotest.(check bool) "frees happened" true (!frees >= 2)

let test_interp_backedge_hook () =
  let i = mk_interp () in
  let edges = ref 0 in
  Minic.Interp.set_on_backedge i (fun () -> incr edges);
  ignore
    (Minic.Interp.parse_and_load i
       "int main(void) { int i; for (i = 0; i < 7; i++) {} return 0; }");
  ignore (Minic.Interp.run i "main");
  Alcotest.(check int) "backedges" 7 !edges

let test_interp_charges_cycles () =
  let clock = Ksim.Sim_clock.create () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let space =
    Ksim.Address_space.create ~name:"i" ~mem ~clock ~cost:Ksim.Cost_model.default ()
  in
  let i =
    Minic.Interp.create ~space ~clock ~cost:Ksim.Cost_model.default ~base_vpn:16
      ~pages:16
  in
  ignore
    (Minic.Interp.parse_and_load i
       "int main(void) { int s = 0; int j; for (j = 0; j < 100; j++) s += j; return s; }");
  let t0 = Ksim.Sim_clock.now clock in
  ignore (Minic.Interp.run i "main");
  Alcotest.(check bool) "work charged" true (Ksim.Sim_clock.now clock > t0 + 1000)

let test_sizeof_and_casts () =
  check_run "sizeof int" 8 "int main(void) { return sizeof(int); }";
  check_run "sizeof char" 1 "int main(void) { return sizeof(char); }";
  check_run "sizeof ptr" 8 "int main(void) { return sizeof(int*); }";
  check_run "char cast masks" 1 "int main(void) { return (char)257; }"

(* --- pretty printer round trip ------------------------------------------ *)

let strip_locs_program (p : Minic.Ast.program) = Minic.Pretty.program_to_string p

let test_pretty_roundtrip () =
  let src =
    {|int g = 5;
int helper(int a, char *s) {
  int total = a;
  int i;
  for (i = 0; i < 3; i++) {
    if (s[i] != 0) total += s[i]; else break;
  }
  while (total > 100) total -= 7;
  return total;
}
int main(void) {
  char buf[16];
  strcpy(buf, "hey");
  return helper(g, buf);
}|}
  in
  let p1 = Minic.Parser.parse_program src in
  let printed = strip_locs_program p1 in
  let p2 = Minic.Parser.parse_program printed in
  Alcotest.(check string) "pretty fixpoint" printed (strip_locs_program p2);
  (* and both versions compute the same thing *)
  let i1 = mk_interp () in
  ignore (Minic.Interp.load_program i1 p1);
  let i2 = mk_interp () in
  ignore (Minic.Interp.load_program i2 p2);
  Alcotest.(check int) "same result" (Minic.Interp.run i1 "main")
    (Minic.Interp.run i2 "main")

(* --- qcheck: random arithmetic matches OCaml ----------------------------- *)

let qcheck_arith =
  (* generate random arithmetic over three int variables and compare the
     interpreter against native evaluation *)
  let gen =
    let open QCheck.Gen in
    let leaf () =
      oneof
        [
          map (fun n -> (string_of_int n, fun _ -> n)) (int_range 0 50);
          oneofl
            [
              ("a", fun (a, _, _) -> a);
              ("b", fun (_, b, _) -> b);
              ("c", fun (_, _, c) -> c);
            ];
        ]
    in
    let rec expr depth =
      if depth = 0 then leaf ()
      else
        frequency
          [ (1, leaf ());
            ( 3,
              let* op, f =
                oneofl
                  [ ("+", ( + )); ("-", ( - )); ("*", ( fun x y -> x * y)) ]
              in
              let* l = expr (depth - 1) in
              let* r = expr (depth - 1) in
              let ls, lf = l and rs, rf = r in
              return
                ( Printf.sprintf "(%s %s %s)" ls op rs,
                  fun env -> f (lf env) (rf env) ) ) ]
    in
    let* e = expr 4 in
    let* a = int_range (-100) 100 in
    let* b = int_range (-100) 100 in
    let* c = int_range (-100) 100 in
    return (e, (a, b, c))
  in
  QCheck.Test.make ~name:"interp arithmetic matches OCaml" ~count:60
    (QCheck.make gen) (fun ((src, eval), (a, b, c)) ->
      let prog =
        Printf.sprintf "int main(int a, int b, int c) { return %s; }" src
      in
      run_src ~args:[ a; b; c ] prog = eval (a, b, c))

(* --- goldens: exact simulated behaviour ---------------------------------- *)

(* Every number below was recorded from the tree-walking evaluator this
   interpreter replaced, and the compiled evaluator must reproduce each
   of them exactly: result, step count, virtual cycles, TLB hits and
   misses, the whole object-event stream, the output and the back-edge
   count.  The cost model is the default one, so every node, memory
   access and TLB miss shows up in the cycle total. *)

let golden_src_corpus =
  [
    ("prec-mul", "int main(void) { return 2 + 3 * 4; }", "main", []);
    ("prec-parens", "int main(void) { return (2 + 3) * 4; }", "main", []);
    ("prec-compare", "int main(void) { return 1 + 1 == 2; }", "main", []);
    ("prec-logical", "int main(void) { return 1 && 2 || 0; }", "main", []);
    ("prec-neg", "int main(void) { return -2 * 3; }", "main", []);
    ("prec-shift", "int main(void) { return 1 << 4; }", "main", []);
    ("prec-bitops", "int main(void) { return (12 & 7) | 2; }", "main", []);
    ( "for-desugar",
      "int main(void) { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s; }",
      "main", [] );
    ( "if-else",
      "int main(void) { if (2 > 1) return 1; else return 2; }",
      "main", [] );
    ( "while",
      "int main(void) { int i = 0; while (i < 10) i = i + 1; return i; }",
      "main", [] );
    ( "break",
      "int main(void) { int i = 0; while (1) { if (i == 5) break; i++; } return i; }",
      "main", [] );
    ( "continue",
      {|int main(void) {
       int s = 0; int i;
       for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
       return s;
     }|},
      "main", [] );
    ("ternary", "int main(void) { return 1 ? 7 : 9; }", "main", []);
    ( "nested-calls",
      "int add(int a, int b) { return a + b; } int main(void) { return add(add(1,2), add(8,10)); }",
      "main", [] );
    ( "continue-step",
      {|int main(void) {
       int n = 0; int i;
       for (i = 0; i < 10; i++) {
         if (i % 2 == 1) continue;
         n += 4;
       }
       return n;
     }|},
      "main", [] );
    ( "break-skips-step",
      {|int main(void) {
       int i;
       for (i = 0; i < 10; i++) {
         if (i == 3) break;
       }
       return i;
     }|},
      "main", [] );
    ( "nested-for",
      {|int main(void) {
       int s = 0; int i; int j;
       for (i = 0; i < 3; i++)
         for (j = 0; j < 10; j++) {
           if (j >= 5) continue;
           s += 2;
         }
       return s;
     }|},
      "main", [] );
    ( "fib",
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }",
      "fib", [ 10 ] );
    ( "mutual",
      {|int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
      int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
      int main(void) { return is_even(10); }|},
      "main", [] );
    ( "deref-assign",
      "int main(void) { int x = 42; int *p = &x; *p = *p + 1; return x; }",
      "main", [] );
    ( "pointer-arith",
      {|int main(void) {
       int a[3];
       a[0] = 10; a[1] = 20; a[2] = 30;
       int *p = a;
       p = p + 2;
       return *p;
     }|},
      "main", [] );
    ( "pointer-diff",
      {|int main(void) {
       int a[5];
       int *p = a;
       int *q = p + 2;
       return q - p;
     }|},
      "main", [] );
    ( "char-walk",
      {|int main(void) {
       char *s = malloc(8);
       strcpy(s, "abc");
       int n = 0;
       while (s[n] != 0) n++;
       free(s);
       return n;
     }|},
      "main", [] );
    ( "globals",
      {|int counter;
      int bump(void) { counter = counter + 1; return counter; }
      int main(void) { bump(); bump(); return bump(); }|},
      "main", [] );
    ( "memset-memcpy",
      {|int main(void) {
       char a[16];
       char b[16];
       memset(a, 7, 16);
       memcpy(b, a, 16);
       int i;
       for (i = 0; i < 16; i++) if (b[i] != 7) return 1;
       return 0;
     }|},
      "main", [] );
    ("strcmp", {|int main(void) { return strcmp("same", "same"); }|}, "main", []);
    ( "output",
      {|int main(void) { print_str("n="); print_int(42); putchar(10); return 0; }|},
      "main", [] );
    ("div-zero", "int main(void) { return 1 / 0; }", "main", []);
    ("unknown-fn", "int main(void) { return nosuch(); }", "main", []);
    ("bad-free", "int main(void) { free(1234); return 0; }", "main", []);
    ( "wild-pointer",
      "int main(void) { int *p = (int*)99999999; return *p; }",
      "main", [] );
    ("extern", "int main(void) { return host_mul(6, 7); }", "main", []);
    ( "obj-events",
      {|int g;
         int main(void) {
           int arr[4];
           char *h = malloc(10);
           free(h);
           return arr[0] + g;
         }|},
      "main", [] );
    ( "backedges",
      "int main(void) { int i; for (i = 0; i < 7; i++) {} return 0; }",
      "main", [] );
    ( "charges",
      "int main(void) { int s = 0; int j; for (j = 0; j < 100; j++) s += j; return s; }",
      "main", [] );
    ("sizeof-int", "int main(void) { return sizeof(int); }", "main", []);
    ("sizeof-char", "int main(void) { return sizeof(char); }", "main", []);
    ("sizeof-ptr", "int main(void) { return sizeof(int*); }", "main", []);
    ("char-cast", "int main(void) { return (char)257; }", "main", []);
    ( "pretty",
      {|int g = 5;
int helper(int a, char *s) {
  int total = a;
  int i;
  for (i = 0; i < 3; i++) {
    if (s[i] != 0) total += s[i]; else break;
  }
  while (total > 100) total -= 7;
  return total;
}
int main(void) {
  char buf[16];
  strcpy(buf, "hey");
  return helper(g, buf);
}|},
      "main", [] );
    ( "scopes",
      {|int g2;
int addr_param(int x, int y) { int *p = &x; *p = *p + y; return x; }
int main(void) {
  int total = 0;
  int k;
  for (k = 0; k < 3; k++) {
    int r;
    r = r + k;
    char tmp[8];
    tmp[0] = k;
    int total = 100;
    g2 = g2 + tmp[0] + r + total;
    print_str("x");
  }
  {
    int arr[2];
    arr[1] = addr_param(5, 6);
    if (arr[1] == 11) { int deep[3]; deep[2] = arr[1]; return deep[2] + g2 + total; }
  }
  return -1;
}|},
      "main", [] );
    ( "ops",
      {|int main(void) {
  int m;
  (char)m = 300;
  return (~5) + !0 + (7 % 3) + (-8 >> 1) + (5 ^ 3) + (1 ? 2 : 3) + (0 || 4)
    + (0 && 1) + m;
}|},
      "main", [] );
    ( "ptr-scale",
      {|int main(void) {
  int a[4];
  a[2] = 9;
  int *p = a;
  char *c = (char*)a;
  int *q = 1 + p;
  return *(q + 1) + (c + 16 == (char*)(p + 2));
}|},
      "main", [] );
    ( "arith",
      "int main(int a, int b, int c) { return ((a * (b - 7)) + ((c - a) * (3 + b))); }",
      "main", [ 17; -42; 99 ] );
  ]

let pp_obj_event ppf = function
  | Minic.Interp.Obj_alloc { base; size; kind; name } ->
      Fmt.pf ppf "+%a:%s@%x/%d" Minic.Interp.pp_obj_kind kind name base size
  | Minic.Interp.Obj_free { base; kind } ->
      Fmt.pf ppf "-%a@%x" Minic.Interp.pp_obj_kind kind base

(* Run [fn] on a fresh default-cost interpreter and render everything
   the simulation can observe as one string.  [prepare] runs before the
   program loads (KGCC attaches there), [setup] after it (to stage
   buffers); [setup] returns the call's arguments. *)
let observe ?(prepare = fun _ _ _ -> ()) ?(max_steps = 1_000_000) ~load ~setup
    fn =
  let clock = Ksim.Sim_clock.create () in
  let stats = Kstats.create ~enabled:true () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let cost = Ksim.Cost_model.default in
  let space = Ksim.Address_space.create ~stats ~name:"g" ~mem ~clock ~cost () in
  let i = Minic.Interp.create ~space ~clock ~cost ~base_vpn:16 ~pages:64 in
  let events = ref [] and edges = ref 0 in
  let record ev = events := Fmt.str "%a" pp_obj_event ev :: !events in
  Minic.Interp.set_on_obj i record;
  Minic.Interp.set_on_backedge i (fun () -> incr edges);
  Minic.Interp.register_extern i "host_mul" (fun _ args ->
      match args with [ a; b ] -> a * b | _ -> -1);
  prepare clock i record;
  Minic.Interp.set_max_steps i max_steps;
  load i;
  let args = setup i in
  let outcome =
    match Minic.Interp.run i ~args fn with
    | v -> Printf.sprintf "ret %d" v
    | exception Minic.Interp.Step_limit -> "step-limit"
    | exception Minic.Interp.Runtime_error (m, loc) ->
        Fmt.str "error %s at %a" m Minic.Ast.pp_loc loc
    | exception Ksim.Fault.Fault f -> Fmt.str "%a" Ksim.Fault.pp f
  in
  let counter name =
    match Kstats.find stats name with
    | Some (Kstats.Counter_v v) -> v
    | _ -> -1
  in
  Printf.sprintf "%s steps=%d cycles=%d tlb=%d/%d edges=%d out=%S objs=[%s]"
    outcome (Minic.Interp.steps i) (Ksim.Sim_clock.now clock)
    (counter "tlb.g.hits") (counter "tlb.g.misses") !edges
    (Minic.Interp.output i)
    (String.concat " " (List.rev !events))

let observe_src (_, src, fn, args) =
  observe fn
    ~load:(fun i -> ignore (Minic.Interp.parse_and_load i src))
    ~setup:(fun _ -> args)

(* The journalfs hot paths on staged buffers; [kgcc] loads the module
   through the KGCC pass with its runtime attached. *)
let observe_jfs ?(kgcc = false) fn =
  let program () =
    let p = Minic.Parser.parse_program ~file:"journalfs.c" Kvfs.Journalfs.source in
    if kgcc then Kgcc.Compile.transform p else p
  in
  let prepare clock i record =
    if kgcc then begin
      let rt = Kgcc.Kgcc_runtime.create ~clock ~cost:Ksim.Cost_model.default () in
      Kgcc.Kgcc_runtime.attach rt i;
      let objmap = Kgcc.Kgcc_runtime.objmap rt in
      Minic.Interp.set_on_obj i (fun ev ->
          record ev;
          match ev with
          | Minic.Interp.Obj_alloc { base; size; name; kind } ->
              let kind =
                match kind with
                | Minic.Interp.Stack -> Kgcc.Objmap.Stack
                | Minic.Interp.Heap -> Kgcc.Objmap.Heap
                | Minic.Interp.Global -> Kgcc.Objmap.Global
                | Minic.Interp.Literal -> Kgcc.Objmap.Literal
              in
              Kgcc.Objmap.register objmap ~base ~size ~kind ~name
          | Minic.Interp.Obj_free { base; _ } -> Kgcc.Objmap.unregister objmap ~base)
    end
  in
  let stage i ~name data =
    let addr = Minic.Interp.alloc_buffer i ~name (Bytes.length data) in
    Ksim.Address_space.write_bytes (Minic.Interp.space i) ~addr data;
    addr
  in
  let setup i =
    match fn with
    | "jfs_checksum" ->
        let buf = stage i ~name:"buf" (Bytes.init 600 (fun k -> Char.chr ((k * 7 + 3) land 0xff))) in
        [ buf; 600 ]
    | "jfs_scan_dir" ->
        let entries = Bytes.make (16 * 32) '\000' in
        for k = 0 to 15 do
          let n = Printf.sprintf "file%d" k in
          Bytes.blit_string n 0 entries (k * 32) (String.length n)
        done;
        let e = stage i ~name:"entries" entries in
        let target = stage i ~name:"target" (Bytes.of_string "file11\000") in
        [ e; 16; 32; target ]
    | _ ->
        let bitmap = Bytes.make 64 '\000' in
        Bytes.fill bitmap 0 10 '\255';
        Bytes.set bitmap 10 '\015';
        [ stage i ~name:"bitmap" bitmap; 64 ]
  in
  observe ~prepare fn
    ~load:(fun i -> ignore (Minic.Interp.load_program i (program ())))
    ~setup

let golden_step_limit () =
  observe "main" ~max_steps:10_000
    ~load:(fun i ->
      ignore
        (Minic.Interp.parse_and_load i
           "int main(void) { while (1) {} return 0; }"))
    ~setup:(fun _ -> [])

let golden_expected =
  [
    ("prec-mul",
     "ret 14 steps=6 cycles=24 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-parens",
     "ret 20 steps=6 cycles=24 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-compare",
     "ret 1 steps=6 cycles=24 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-logical",
     "ret 1 steps=5 cycles=20 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-neg",
     "ret -6 steps=5 cycles=20 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-shift",
     "ret 16 steps=4 cycles=16 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("prec-bitops",
     "ret 6 steps=6 cycles=24 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("for-desugar",
     "ret 45 steps=143 cycles=572 tlb=0/0 edges=10 out=\"\" objs=[]");
    ("if-else",
     "ret 1 steps=6 cycles=24 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("while",
     "ret 10 steps=88 cycles=352 tlb=0/0 edges=10 out=\"\" objs=[]");
    ("break",
     "ret 5 steps=61 cycles=244 tlb=0/0 edges=5 out=\"\" objs=[]");
    ("continue",
     "ret 25 steps=183 cycles=732 tlb=0/0 edges=10 out=\"\" objs=[]");
    ("ternary",
     "ret 7 steps=4 cycles=16 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("nested-calls",
     "ret 21 steps=20 cycles=80 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("continue-step",
     "ret 20 steps=183 cycles=732 tlb=0/0 edges=10 out=\"\" objs=[]");
    ("break-skips-step",
     "ret 3 steps=52 cycles=208 tlb=0/0 edges=3 out=\"\" objs=[]");
    ("nested-for",
     "ret 30 steps=512 cycles=2048 tlb=0/0 edges=33 out=\"\" objs=[]");
    ("fib",
     "ret 55 steps=1766 cycles=7064 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("mutual",
     "ret 1 steps=99 cycles=396 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("deref-assign",
     "ret 43 steps=13 cycles=120 tlb=3/1 edges=0 out=\"\" objs=[+stack:x@4fff8/8 -stack@4fff8]");
    ("pointer-arith",
     "ret 30 steps=26 cycles=172 tlb=3/1 edges=0 out=\"\" objs=[+stack:a@4ffe8/24 -stack@4ffe8]");
    ("pointer-diff",
     "ret 2 steps=11 cycles=44 tlb=0/0 edges=0 out=\"\" objs=[+stack:a@4ffd8/40 -stack@4ffd8]");
    ("char-walk",
     "ret 3 steps=50 cycles=283 tlb=9/1 edges=3 out=\"\" objs=[+heap:<malloc>@10000/8 +literal:<literal>@10008/4 -heap@10000]");
    ("globals",
     "ret 3 steps=27 cycles=186 tlb=8/1 edges=0 out=\"\" objs=[+global:counter@10000/8]");
    ("memset-memcpy",
     "ret 0 steps=247 cycles=1118 tlb=18/1 edges=16 out=\"\" objs=[+stack:a@4fff0/16 +stack:b@4ffe0/16 -stack@4ffe0 -stack@4fff0]");
    ("strcmp",
     "ret 0 steps=4 cycles=102 tlb=10/1 edges=0 out=\"\" objs=[+literal:<literal>@10000/5]");
    ("output",
     "ret 0 steps=11 cycles=112 tlb=3/1 edges=0 out=\"n=42\\n\" objs=[+literal:<literal>@10000/3]");
    ("div-zero",
     "error division by zero at <string>:1 steps=4 cycles=16 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("unknown-fn",
     "error unknown function nosuch at <string>:1 steps=2 cycles=8 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("bad-free",
     "error free of non-heap address 0x4d2 at <string>:1 steps=3 cycles=12 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("wild-pointer",
     "not-present fault: read at 0x5f5e0ff (pc=<string>:1) steps=6 cycles=2586 tlb=0/1 edges=0 out=\"\" objs=[]");
    ("extern",
     "ret 42 steps=4 cycles=16 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("obj-events",
     "ret 0 steps=13 cycles=176 tlb=0/2 edges=0 out=\"\" objs=[+global:g@10000/8 +stack:arr@4ffe0/32 +heap:<malloc>@10008/10 -heap@10008 -stack@4ffe0]");
    ("backedges",
     "ret 0 steps=67 cycles=268 tlb=0/0 edges=7 out=\"\" objs=[]");
    ("charges",
     "ret 4950 steps=1313 cycles=5252 tlb=0/0 edges=100 out=\"\" objs=[]");
    ("sizeof-int",
     "ret 8 steps=2 cycles=8 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("sizeof-char",
     "ret 1 steps=2 cycles=8 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("sizeof-ptr",
     "ret 8 steps=2 cycles=8 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("char-cast",
     "ret 1 steps=3 cycles=12 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("pretty",
     "ret 95 steps=353 cycles=1561 tlb=11/2 edges=36 out=\"\" objs=[+global:g@10000/8 +stack:buf@4fff0/16 +literal:<literal>@10008/4 -stack@4fff0]");
    ("scopes",
     "ret 317 steps=161 cycles=822 tlb=27/2 edges=3 out=\"xxx\" objs=[+global:g2@10000/8 +stack:tmp@4fff8/8 +literal:<literal>@10008/2 -stack@4fff8 +stack:tmp@4fff8/8 -stack@4fff8 +stack:tmp@4fff8/8 -stack@4fff8 +stack:arr@4fff0/16 +stack:x@4ffe8/8 -stack@4ffe8 +stack:deep@4ffd8/24 -stack@4ffd8 -stack@4fff0]");
    ("ops",
     "ret 45 steps=36 cycles=144 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("ptr-scale",
     "ret 10 steps=29 cycles=180 tlb=1/1 edges=0 out=\"\" objs=[+stack:a@4ffe0/32 -stack@4ffe0]");
    ("arith",
     "ret -4031 steps=14 cycles=56 tlb=0/0 edges=0 out=\"\" objs=[]");
    ("step-limit",
     "step-limit steps=10001 cycles=40000 tlb=0/0 edges=9999 out=\"\" objs=[]");
    ("jfs_checksum",
     "ret 4372148 steps=13213 cycles=54114 tlb=600/1 edges=600 out=\"\" objs=[+heap:buf@10000/600]");
    ("jfs_scan_dir",
     "ret 11 steps=1753 cycles=7604 tlb=265/1 edges=63 out=\"\" objs=[+heap:entries@10000/512 +heap:target@10200/7]");
    ("jfs_bitmap_find",
     "ret 84 steps=252 cycles=1096 tlb=13/1 edges=14 out=\"\" objs=[+heap:bitmap@10000/64]");
    ("jfs_checksum-kgcc",
     "ret 4372148 steps=16213 cycles=558114 tlb=600/1 edges=600 out=\"\" objs=[+heap:buf@10000/600]");
  ]

let golden_cases =
  List.map (fun ((name, _, _, _) as p) -> (name, fun () -> observe_src p))
    golden_src_corpus
  @ [
      ("step-limit", golden_step_limit);
      ("jfs_checksum", fun () -> observe_jfs "jfs_checksum");
      ("jfs_scan_dir", fun () -> observe_jfs "jfs_scan_dir");
      ("jfs_bitmap_find", fun () -> observe_jfs "jfs_bitmap_find");
      ("jfs_checksum-kgcc", fun () -> observe_jfs ~kgcc:true "jfs_checksum");
    ]

let golden_tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case name `Quick (fun () ->
          let expected =
            match List.assoc_opt name golden_expected with
            | Some e -> e
            | None -> Alcotest.failf "no golden recorded for %s" name
          in
          Alcotest.(check string) name expected (run ())))
    golden_cases

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "escapes" `Quick test_lexer_string_escapes;
          Alcotest.test_case "lines" `Quick test_lexer_line_numbers;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "for desugar" `Quick test_parser_for_desugar;
          Alcotest.test_case "cosy markers" `Quick test_parser_cosy_markers;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "errors" `Quick test_typecheck_errors;
          Alcotest.test_case "addressable" `Quick test_addressable_analysis;
        ] );
      ( "interp",
        [
          Alcotest.test_case "control flow" `Quick test_interp_control_flow;
          Alcotest.test_case "for/continue regression" `Quick test_for_continue_regression;
          Alcotest.test_case "recursion" `Quick test_interp_recursion;
          Alcotest.test_case "pointers" `Quick test_interp_pointers;
          Alcotest.test_case "globals" `Quick test_interp_globals;
          Alcotest.test_case "mem funcs" `Quick test_interp_arrays_memfuncs;
          Alcotest.test_case "output" `Quick test_interp_output;
          Alcotest.test_case "runtime errors" `Quick test_interp_runtime_errors;
          Alcotest.test_case "step limit" `Quick test_interp_step_limit;
          Alcotest.test_case "wild pointer faults" `Quick test_interp_wild_pointer_faults;
          Alcotest.test_case "externs" `Quick test_interp_externs;
          Alcotest.test_case "obj events" `Quick test_interp_obj_events;
          Alcotest.test_case "backedge hook" `Quick test_interp_backedge_hook;
          Alcotest.test_case "cycle charging" `Quick test_interp_charges_cycles;
          Alcotest.test_case "sizeof/casts" `Quick test_sizeof_and_casts;
          QCheck_alcotest.to_alcotest qcheck_arith;
        ] );
      ( "pretty",
        [ Alcotest.test_case "roundtrip" `Quick test_pretty_roundtrip ] );
      ("golden", golden_tests);
    ]
