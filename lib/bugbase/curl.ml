(* Curl bug #965 (paper Fig. 7): a sequential, input-dependent bug.
   Passing a URL with unbalanced curly braces ("{}{") makes the URL
   glob parser take its error path, which leaves urls->current NULL;
   next_url() then calls strlen(urls->current) and segfaults.

   The fix chosen by the developers: reject unbalanced braces in the
   input (paper §5.1).

   urls object layout: [0] current (string), [1] remaining count,
   [2] glob pattern (string). *)

open Ir.Types
module B = Ir.Builder

let file = "curl.c"
let i = B.file file
let r = B.r
let im = B.im

(* Count occurrences of character [ch] (given as its code) in [s]. *)
let count_char =
  B.func "count_char" ~params:[ "s"; "ch" ]
    [
      B.block "entry"
        [
          i 50 "int n = 0;" (Assign ("n", Mov (im 0)));
          i 51 "int len = strlen(s);" (Builtin (Some "len", "strlen", [ r "s" ]));
          i 52 "for (int k = 0; k < len; k++)" (Assign ("k", Mov (im 0)));
          i 52 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 52 "for (int k = 0; k < len; k++)"
            (Assign ("more", B.( <% ) (r "k") (r "len")));
          i 52 "" (Branch (r "more", "body", "done"));
        ];
      B.block "body"
        [
          i 53 "if (s[k] == ch) n++;"
            (Builtin (Some "c", "str_char", [ r "s"; r "k" ]));
          i 53 "if (s[k] == ch) n++;" (Assign ("hit", B.( =% ) (r "c") (r "ch")));
          i 53 "if (s[k] == ch) n++;" (Branch (r "hit", "incr", "next"));
        ];
      B.block "incr"
        [
          i 53 "if (s[k] == ch) n++;" (Assign ("n", B.( +% ) (r "n") (im 1)));
          i 53 "" (Jmp "next");
        ];
      B.block "next"
        [
          i 52 "k++;" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 52 "" (Jmp "loop");
        ];
      B.block "done" [ i 54 "return n;" (Ret (Some (r "n"))) ];
    ]

(* Distractor: scheme validation, part of any real URL handling. *)
let parse_scheme =
  B.func "parse_scheme" ~params:[ "s" ]
    [
      B.block "entry"
        [
          i 60 "char c0 = s[0];" (Builtin (Some "c0", "str_char", [ r "s"; im 0 ]));
          i 61 "bool is_http = c0 == 'h';"
            (Assign ("is_http", B.( =% ) (r "c0") (im 104)));
          i 62 "return is_http ? HTTP : FILE;"
            (Branch (r "is_http", "http", "other"));
        ];
      B.block "http" [ i 62 "" (Ret (Some (im 1))) ];
      B.block "other" [ i 63 "" (Ret (Some (im 0))) ];
    ]

let glob_url =
  B.func "glob_url" ~params:[ "url" ]
    [
      B.block "entry"
        [
          i 10 "urls* g = malloc(sizeof(urls));" (Malloc ("g", 3));
          i 11 "g->pattern = url;" (Store (r "g", 2, r "url"));
          i 12 "int opens = count_char(url, '{');"
            (Call (Some "opens", "count_char", [ r "url"; im 123 ]));
          i 13 "int closes = count_char(url, '}');"
            (Call (Some "closes", "count_char", [ r "url"; im 125 ]));
          i 14 "if (opens != closes) {"
            (Assign ("unbal", B.( <>% ) (r "opens") (r "closes")));
          i 14 "if (opens != closes) {" (Branch (r "unbal", "bad", "ok"));
        ];
      B.block "bad"
        [
          (* The bug: the error path fails to initialise g->current. *)
          i 15 "glob_error(g); /* leaves g->current NULL */"
            (Store (r "g", 0, Null));
          i 16 "g->remaining = 0;" (Store (r "g", 1, im 0));
          i 16 "" (Jmp "out");
        ];
      B.block "ok"
        [
          i 18 "g->current = strdup(url);" (Store (r "g", 0, r "url"));
          i 19 "g->remaining = opens + 1;"
            (Assign ("rem", B.( +% ) (r "opens") (im 1)));
          i 19 "g->remaining = opens + 1;" (Store (r "g", 1, r "rem"));
          i 19 "" (Jmp "out");
        ];
      B.block "out" [ i 20 "return g;" (Ret (Some (r "g"))) ];
    ]

let next_url =
  B.func "next_url" ~params:[ "urls" ]
    [
      B.block "entry"
        [
          i 30 "char* cur = urls->current;" (Load ("cur", r "urls", 0));
          i 31 "len = strlen(urls->current);   /* segfault */"
            (Builtin (Some "len", "strlen", [ r "cur" ]));
          i 32 "urls->remaining--;" (Load ("rm", r "urls", 1));
          i 32 "urls->remaining--;" (Assign ("rm1", B.( -% ) (r "rm") (im 1)));
          i 32 "urls->remaining--;" (Store (r "urls", 1, r "rm1"));
          i 33 "return urls->remaining >= 0 ? cur : NULL;"
            (Assign ("ok", B.( >=% ) (r "rm1") (im 0)));
          i 33 "return urls->remaining >= 0 ? cur : NULL;"
            (Branch (r "ok", "some", "none"));
        ];
      B.block "some" [ i 33 "" (Ret (Some (r "cur"))) ];
      B.block "none" [ i 34 "" (Ret (Some Null)) ];
    ]

let transfer =
  B.func "transfer" ~params:[ "u" ]
    [
      B.block "entry"
        [
          i 70 "int scheme = parse_scheme(u);"
            (Call (Some "scheme", "parse_scheme", [ r "u" ]));
          i 71 "int len = strlen(u);" (Builtin (Some "len", "strlen", [ r "u" ]));
          i 72 "simulate_io(len);" (Assign ("k", Mov (im 0)));
          i 72 "" (Jmp "io");
        ];
      B.block "io"
        [
          i 72 "simulate_io(len);" (Assign ("busy", B.( <% ) (r "k") (im 150)));
          i 72 "" (Branch (r "busy", "io_body", "done"));
        ];
      B.block "io_body"
        [
          i 73 "checksum += buf[k];" (Assign ("x", B.( *% ) (r "k") (im 7)));
          i 73 "checksum += buf[k];" (Assign ("k", B.( +% ) (r "k") (im 1)));
          i 73 "" (Jmp "io");
        ];
      B.block "done" [ i 74 "return 0;" (Ret (Some (im 0))) ];
    ]

let operate =
  B.func "operate" ~params:[ "url" ]
    [
      B.block "entry"
        [
          i 22 "urls* urls = glob_url(url);"
            (Call (Some "urls", "glob_url", [ r "url" ]));
          i 23 "" (Jmp "loop");
        ];
      B.block "loop"
        [
          i 24 "for (i = 0; (url = next_url(urls)); i++) {"
            (Call (Some "u", "next_url", [ r "urls" ]));
          i 24 "for (i = 0; (url = next_url(urls)); i++) {"
            (Assign ("go", B.( <>% ) (r "u") Null));
          i 24 "" (Branch (r "go", "body", "out"));
        ];
      B.block "body"
        [
          i 25 "transfer(url);" (Call (Some "tr", "transfer", [ r "u" ]));
          i 25 "" (Jmp "loop");
        ];
      B.block "out" [ i 26 "return 0;" (Ret (Some (im 0))) ];
    ]

let main =
  B.func "main" ~params:[ "argv1" ]
    [
      B.block "entry"
        [
          i 40 "return operate(argv[1]);"
            (Call (Some "rc", "operate", [ r "argv1" ]));
          i 40 "return operate(argv[1]);" (Ret (Some (r "rc")));
        ];
    ]

let program =
  Ir.Program.make ~main:"main"
    [ count_char; parse_scheme; glob_url; next_url; transfer; operate; main ]

let inputs =
  [|
    "http://example.com/files.txt";
    "http://example.com/{a,b,c}.txt";
    "http://mirror.net/pkg-3.1.tar.gz";
    "{}{";  (* the failing input of bug #965 *)
    "http://example.com/img{1,2}.png";
    "http://host/a";
    "http://host/{x,y}{1,2}";
    "http://files.org/data.bin";
  |]

let bug : Common.t =
  {
    name = "Curl";
    software = "Curl";
    version = "7.21";
    bug_id = "965";
    description =
      "URL globs with unbalanced braces take the parser's error path, \
       which leaves urls->current NULL; next_url() then calls \
       strlen(NULL).";
    failure_type = "Sequential bug, data-related";
    bug_class = Common.Sequential;
    program;
    source_file = file;
    workload_of =
      (fun c ->
        Exec.Interp.workload
          ~args:[ Exec.Value.VStr inputs.(c mod Array.length inputs) ]
          (Exec.Interp.seed_of_client c));
    ideal_lines = [ 20; 24; 30; 31 ];
    root_lines = [ 24; 30; 31 ];
    target_kind_tag = "segfault";
    target_line = 31;
    claimed_loc = 81_658;
    preempt_prob = 0.2;
  }
