(** Dominators (Cooper-Harvey-Kennedy) and postdominators.

    Gist's instrumentation placement needs strict dominance (to elide
    redundant trace-start points), immediate postdominators (trace-stop
    points) and immediate dominators (watchpoint arming points),
    paper §3.2.2-§3.2.3. *)

(** A dominator tree: [idom.(entry) = entry]; unreachable nodes carry
    [-1]. *)
type t = { entry : int; idom : int array }

val compute : Graph.t -> int -> t

(** Immediate dominator; [None] for the entry or unreachable nodes. *)
val idom : t -> int -> int option

val reachable : t -> int -> bool

(** [dominates t a b]: does [a] dominate [b]?  Reflexive. *)
val dominates : t -> int -> int -> bool

val strictly_dominates : t -> int -> int -> bool

(** Postdominators: computed on the reversed graph with a virtual exit
    node [vexit] joined from every natural exit (or from every node
    when the graph has none, e.g. an infinite loop). *)
type post = { vexit : int; dom : t }

val compute_post : Graph.t -> post
val postdominates : post -> int -> int -> bool

(** Immediate postdominator; [None] when it is the virtual exit. *)
val ipdom : post -> int -> int option
