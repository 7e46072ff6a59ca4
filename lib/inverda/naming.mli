(** Naming scheme for all generated database objects. Generated names use
    ['!'] and ['@'] separators (accepted inside identifiers by the shared
    lexer); user-facing views are the qualified ["<version>.<table>"]. *)

val table_version : id:int -> table:string -> string
(** Canonical relation of a table version: the view (or data-table
    pass-through) carrying the delta code. *)

val data_table : id:int -> table:string -> string
(** Physical data table of a materialized table version. *)

val aux : smo_id:int -> string -> string
(** Auxiliary relation of an SMO instance, by kind (e.g. ["rest"],
    ["lstar"], ["id"]). *)

val skolem : smo_id:int -> string -> string
(** Identifier-generating function of an SMO instance. *)

val version_view : version:string -> table:string -> string

val trigger : target:string -> Minidb.Sql_ast.trigger_event -> string

val global_id_function : string
(** The engine function yielding fresh InVerDa-managed row identifiers. *)

val via : string -> smo_id:int -> string
(** Variant of a canonical view used as the write target when a write arrives
    across the given SMO: same contents, but its triggers skip that SMO's own
    auxiliary maintenance. *)
