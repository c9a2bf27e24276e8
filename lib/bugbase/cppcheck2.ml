(* Cppcheck bug #2782 (v1.48): the constant-folding pass evaluates
   "<num> / <num>" token triples with the host division; analysing
   source that contains a literal division by zero crashes the checker
   itself.

   Token node layout: [0] numeric value, [1] next, [2] kind.
   Kinds: 0 other, 3 number, 5 divide. *)

open Ir.Types
module B = Ir.Builder

let file = "cppcheck2.cpp"
let i = B.file file
let r = B.r
let im = B.im

let tokenize =
  B.func "tokenize" ~params:[ "src" ]
    [
      B.block "entry"
        [
          i 10 "Token* head = new Token(END);" (Malloc ("head", 3));
          i 10 "Token* head = new Token(END);" (Store (r "head", 2, im 0));
          i 10 "Token* head = new Token(END);" (Store (r "head", 1, Null));
          i 11 "Token* tail = head;" (Assign ("tail", Mov (r "head")));
          i 12 "int len = strlen(src);" (Builtin (Some "len", "strlen", [ r "src" ]));
          i 13 "for (int k = 0; k < len; k++) {" (Assign ("k", Mov (im 0)));
          i 13 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 13 "for (int k = 0; k < len; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "len")));
          i 13 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 14 "char c = src[k];" (Builtin (Some "c", "str_char", [ r "src"; r "k" ]));
          i 15 "if (isdigit(c)) {" (Assign ("ge0", B.( >=% ) (r "c") (im 48)));
          i 15 "if (isdigit(c)) {" (Assign ("le9", B.( <=% ) (r "c") (im 57)));
          i 15 "if (isdigit(c)) {" (Assign ("isd", B.( &&% ) (r "ge0") (r "le9")));
          i 15 "if (isdigit(c)) {" (Branch (r "isd", "num", "notnum"));
        ];
      B.block "num"
        [
          i 16 "kind = K_NUM; val = c - '0';" (Assign ("kind", Mov (im 3)));
          i 16 "kind = K_NUM; val = c - '0';"
            (Assign ("value", B.( -% ) (r "c") (im 48)));
          i 16 "" (Jmp "append");
        ];
      B.block "notnum"
        [
          i 17 "kind = (c == '/') ? K_DIV : K_OTHER;"
            (Assign ("isdiv", B.( =% ) (r "c") (im 47)));
          i 17 "kind = (c == '/') ? K_DIV : K_OTHER;"
            (Branch (r "isdiv", "divk", "otherk"));
        ];
      B.block "divk"
        [
          i 17 "" (Assign ("kind", Mov (im 5)));
          i 17 "" (Assign ("value", Mov (im 0)));
          i 17 "" (Jmp "append");
        ];
      B.block "otherk"
        [
          i 18 "" (Assign ("kind", Mov (im 0)));
          i 18 "" (Assign ("value", Mov (im 0)));
          i 18 "" (Jmp "append");
        ];
      B.block "append"
        [
          i 19 "Token* tok = new Token(c, kind);" (Malloc ("tok", 3));
          i 19 "Token* tok = new Token(c, kind);" (Store (r "tok", 0, r "value"));
          i 19 "Token* tok = new Token(c, kind);" (Store (r "tok", 2, r "kind"));
          i 19 "Token* tok = new Token(c, kind);" (Store (r "tok", 1, Null));
          i 20 "tail->next = tok; tail = tok;" (Store (r "tail", 1, r "tok"));
          i 20 "tail->next = tok; tail = tok;" (Assign ("tail", Mov (r "tok")));
          i 21 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 21 "" (Jmp "loop");
        ];
      B.block "done" [ i 22 "return head;" (Ret (Some (r "head"))) ];
    ]

let simplify_calculations =
  B.func "simplify_calculations" ~params:[ "head" ]
    [
      B.block "entry"
        [
          i 30 "for (Token* tok = head; tok; tok = tok->next) {"
            (Assign ("tok", Mov (r "head")));
          i 30 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 30 "for (Token* tok = head; tok; tok = tok->next) {"
            (Assign ("go", B.( <>% ) (r "tok") Null));
          i 30 "" (Branch (r "go", "body", "done"));
        ];
      B.block "body"
        [
          i 31 "if (tok->kind == K_NUM && tok->next && ...) {"
            (Load ("kd", r "tok", 2));
          i 31 "if (tok->kind == K_NUM && tok->next && ...) {"
            (Assign ("isnum", B.( =% ) (r "kd") (im 3)));
          i 31 "if (tok->kind == K_NUM && tok->next && ...) {"
            (Branch (r "isnum", "try_op", "next"));
        ];
      B.block "try_op"
        [
          i 32 "Token* op = tok->next;" (Load ("op", r "tok", 1));
          i 32 "if (!op) break;" (Assign ("hasop", B.( <>% ) (r "op") Null));
          i 32 "if (!op) break;" (Branch (r "hasop", "chk_op", "done"));
        ];
      B.block "chk_op"
        [
          i 33 "if (op->kind == K_DIV) {" (Load ("opk", r "op", 2));
          i 33 "if (op->kind == K_DIV) {"
            (Assign ("isdiv", B.( =% ) (r "opk") (im 5)));
          i 33 "if (op->kind == K_DIV) {" (Branch (r "isdiv", "rhs", "next"));
        ];
      B.block "rhs"
        [
          i 34 "Token* b = op->next;" (Load ("btok", r "op", 1));
          i 34 "if (!b) break;" (Assign ("hasb", B.( <>% ) (r "btok") Null));
          i 34 "if (!b) break;" (Branch (r "hasb", "chk_b", "done"));
        ];
      B.block "chk_b"
        [
          i 35 "if (b->kind == K_NUM) {" (Load ("bk", r "btok", 2));
          i 35 "if (b->kind == K_NUM) {" (Assign ("bnum", B.( =% ) (r "bk") (im 3)));
          i 35 "if (b->kind == K_NUM) {" (Branch (r "bnum", "fold", "next"));
        ];
      B.block "fold"
        [
          i 36 "int va = tok->value;" (Load ("va", r "tok", 0));
          i 37 "int vb = b->value;" (Load ("vb", r "btok", 0));
          i 38 "tok->value = va / vb;   /* crash: division by zero */"
            (Assign ("folded", B.( /% ) (r "va") (r "vb")));
          i 38 "tok->value = va / vb;   /* crash: division by zero */"
            (Store (r "tok", 0, r "folded"));
          i 39 "tok->next = b->next;" (Load ("bn", r "btok", 1));
          i 39 "tok->next = b->next;" (Store (r "tok", 1, r "bn"));
          i 39 "" (Jmp "next");
        ];
      B.block "next"
        [
          i 40 "}" (Load ("tok", r "tok", 1));
          i 40 "" (Jmp "loop");
        ];
      B.block "done" [ i 41 "return;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "src" ]
    [
      B.block "entry"
        [
          i 50 "Token* head = tokenize(src);"
            (Call (Some "head", "tokenize", [ r "src" ]));
          i 51 "simplify_calculations(head);"
            (Call (None, "simplify_calculations", [ r "head" ]));
          i 52 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main" [ tokenize; simplify_calculations; main ]

(* Realistic multi-statement source files (the checker's unit of work). *)
let sample body = String.concat " " (List.init 8 (fun _ -> body))

let inputs =
  [|
    sample "x = 8/2;";
    sample "int y = a/b;";
    sample "z = 9/3 + 1;";
    sample "p = q + r;" ^ " w = 1/0;";  (* failing: constant division by zero *)
    sample "p = q + r;";
    sample "k = 6/2/3;";
    sample "m = 5 / n;";
    sample "s = 4/4;";
    sample "t = (a);";
  |]

let bug : Common.t =
  {
    name = "Cppcheck-2";
    software = "Cppcheck";
    version = "1.48";
    bug_id = "2782";
    description =
      "Constant folding evaluates '<num>/<num>' with host division; \
       analysing source containing a literal division by zero crashes \
       the checker itself.";
    failure_type = "Sequential bug, arithmetic fault";
    bug_class = Common.Sequential;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VStr inputs.(c mod Array.length inputs) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 40; 31; 32; 33; 34; 35; 36; 37; 38 ];
    root_lines = [ 33; 35; 37; 38 ];
    target_kind_tag = "div-by-zero";
    target_line = 38;
    claimed_loc = 76_009;
    preempt_prob = 0.2;
  }
