(** A flow-insensitive, field-sensitive, Andersen-style points-to
    analysis.

    The paper's Gist deliberately omits alias analysis ("it can be over
    50% inaccurate, which would increase the static slice size",
    §3.1).  This module quantifies that argument: {!Slicer.compute}
    can match memory items through {!may_alias} instead of syntactic
    base names, and the [extensions] experiment reports the slice
    growth. *)

open Ir.Types

(** Abstract objects: allocation sites and named globals. *)
type obj =
  | Site of iid
  | Global_obj of string

module ObjSet : Set.S with type elt = obj

type t

val analyze : program -> t

(** May two field accesses touch the same cell (same offset,
    overlapping base points-to sets)? *)
val may_alias :
  t ->
  func1:string -> base1:string -> off1:int ->
  func2:string -> base2:string -> off2:int ->
  bool

val pts_size : t -> func:string -> reg:string -> int
