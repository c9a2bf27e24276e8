(* Cppcheck bug #3238 (v1.52): the template simplification pass assumes
   every '<' token has a successor ("tok->next()") and dereferences it;
   source files ending in a dangling '<' crash the checker.

   Token node layout: [0] char code, [1] next, [2] kind.
   Kinds: 0 other, 1 name, 2 angle '<', 3 number. *)

open Ir.Types
module B = Ir.Builder

let file = "cppcheck1.cpp"
let i = B.file file
let r = B.r
let im = B.im

(* Build the token list from the source string. *)
let tokenize =
  B.func "tokenize" ~params:[ "src" ]
    [
      B.block "entry"
        [
          i 10 "Token* head = new Token(END);" (Malloc ("head", 3));
          i 11 "head->kind = K_END;" (Store (r "head", 2, im 0));
          i 11 "head->next = NULL;" (Store (r "head", 1, Null));
          i 12 "Token* tail = head;" (Assign ("tail", Mov (r "head")));
          i 13 "int len = strlen(src);" (Builtin (Some "len", "strlen", [ r "src" ]));
          i 14 "for (int k = 0; k < len; k++) {" (Assign ("k", Mov (im 0)));
          i 14 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 14 "for (int k = 0; k < len; k++) {"
            (Assign ("more", B.( <% ) (r "k") (r "len")));
          i 14 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 15 "char c = src[k];" (Builtin (Some "c", "str_char", [ r "src"; r "k" ]));
          i 16 "int kind = classify(c);" (Assign ("isang", B.( =% ) (r "c") (im 60)));
          i 16 "int kind = classify(c);" (Branch (r "isang", "angle", "notangle"));
        ];
      B.block "angle"
        [
          i 17 "kind = K_ANGLE;" (Assign ("kind", Mov (im 2)));
          i 17 "" (Jmp "append");
        ];
      B.block "notangle"
        [
          i 18 "kind = isalpha(c) ? K_NAME : K_OTHER;"
            (Assign ("isal", B.( >=% ) (r "c") (im 97)));
          i 18 "kind = isalpha(c) ? K_NAME : K_OTHER;"
            (Branch (r "isal", "name", "other"));
        ];
      B.block "name"
        [
          i 18 "" (Assign ("kind", Mov (im 1)));
          i 18 "" (Jmp "append");
        ];
      B.block "other"
        [
          i 19 "" (Assign ("kind", Mov (im 0)));
          i 19 "" (Jmp "append");
        ];
      B.block "append"
        [
          i 20 "Token* tok = new Token(c, kind);" (Malloc ("tok", 3));
          i 20 "Token* tok = new Token(c, kind);" (Store (r "tok", 0, r "c"));
          i 21 "tok->kind = kind;" (Store (r "tok", 2, r "kind"));
          i 21 "tok->next = NULL;" (Store (r "tok", 1, Null));
          i 22 "tail->next = tok;" (Store (r "tail", 1, r "tok"));
          i 23 "tail = tok;" (Assign ("tail", Mov (r "tok")));
          i 24 "}" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 24 "" (Jmp "loop");
        ];
      B.block "done" [ i 25 "return head;" (Ret (Some (r "head"))) ];
    ]

let simplify_templates =
  B.func "simplify_templates" ~params:[ "head" ]
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
          i 31 "if (tok->kind == K_ANGLE) {" (Load ("kd", r "tok", 2));
          i 31 "if (tok->kind == K_ANGLE) {"
            (Assign ("isang", B.( =% ) (r "kd") (im 2)));
          i 31 "if (tok->kind == K_ANGLE) {" (Branch (r "isang", "tmpl", "next"));
        ];
      B.block "tmpl"
        [
          i 32 "Token* tok2 = tok->next;" (Load ("tok2", r "tok", 1));
          i 33 "int k2 = tok2->kind;      /* crash on dangling '<' */"
            (Load ("k2", r "tok2", 2));
          i 34 "if (k2 == K_NAME) instantiate(tok, tok2);"
            (Assign ("isn", B.( =% ) (r "k2") (im 1)));
          i 34 "if (k2 == K_NAME) instantiate(tok, tok2);"
            (Branch (r "isn", "inst", "next"));
        ];
      B.block "inst"
        [
          i 35 "tok->kind = K_TEMPLATE;" (Store (r "tok", 2, im 4));
          i 35 "" (Jmp "next");
        ];
      B.block "next"
        [
          i 36 "}" (Load ("tok", r "tok", 1));
          i 36 "" (Jmp "loop");
        ];
      B.block "done" [ i 37 "return;" (Ret (Some (im 0))) ];
    ]

(* Distractor pass: count name tokens (never crashes). *)
let check_unused =
  B.func "check_unused" ~params:[ "head" ]
    [
      B.block "entry"
        [
          i 40 "int names = 0;" (Assign ("names", Mov (im 0)));
          i 40 "Token* tok = head;" (Assign ("tok", Mov (r "head")));
          i 40 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 41 "for (; tok; tok = tok->next)"
            (Assign ("go", B.( <>% ) (r "tok") Null));
          i 41 "" (Branch (r "go", "body", "done"));
        ];
      B.block "body"
        [
          i 42 "if (tok->kind == K_NAME) names++;" (Load ("kd", r "tok", 2));
          i 42 "if (tok->kind == K_NAME) names++;"
            (Assign ("isn", B.( =% ) (r "kd") (im 1)));
          i 42 "if (tok->kind == K_NAME) names++;"
            (Branch (r "isn", "count", "skip"));
        ];
      B.block "count"
        [
          i 42 "" (Assign ("names", B.( +% ) (r "names") (im 1)));
          i 42 "" (Jmp "skip");
        ];
      B.block "skip"
        [
          i 43 "" (Load ("tok", r "tok", 1));
          i 43 "" (Jmp "loop");
        ];
      B.block "done" [ i 44 "return names;" (Ret (Some (r "names"))) ];
    ]

let main =
  B.func "main" ~params:[ "src" ]
    [
      B.block "entry"
        [
          i 50 "Token* head = tokenize(src);" (Call (Some "head", "tokenize", [ r "src" ]));
          i 51 "simplify_templates(head);"
            (Call (None, "simplify_templates", [ r "head" ]));
          i 52 "int names = check_unused(head);"
            (Call (Some "names", "check_unused", [ r "head" ]));
          i 53 "return 0;" (Ret (Some (im 0)));
        ];
    ]

let program =
  Ir.Program.make ~main:"main"
    [ tokenize; simplify_templates; check_unused; main ]

(* Realistic multi-statement source files (the checker's unit of work). *)
let sample body = String.concat " " (List.init 8 (fun _ -> body))

let inputs =
  [|
    sample "int main() { return 0; }";
    sample "class A { void f(); };";
    sample "template<typename T> T id(T x) { return x; }";
    sample "std::vector<int> v;";
    sample "void g() { int x = 1; }";
    sample "a = b + c;" ^ " template<";  (* failing: dangling '<' at EOF *)
    sample "a = b + c;";
    sample "for (;;) {}";
    sample "if (p) q();";
    sample "x<y && y<z;";
  |]

let bug : Common.t =
  {
    name = "Cppcheck-1";
    software = "Cppcheck";
    version = "1.52";
    bug_id = "3238";
    description =
      "The template simplification pass dereferences tok->next after a \
       '<' token without a NULL check; sources ending in a dangling '<' \
       crash the checker.";
    failure_type = "Sequential bug, segmentation fault";
    bug_class = Common.Sequential;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VStr inputs.(c mod Array.length inputs) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 50; 10; 25; 51; 36; 30; 31; 32; 33 ];
    root_lines = [ 31; 32; 33 ];
    target_kind_tag = "segfault";
    target_line = 33;
    claimed_loc = 86_215;
    preempt_prob = 0.2;
  }
