(** Naming scheme for generated database objects.

    All generated names use ['!'] separators, which the shared lexer accepts
    inside identifiers; user-facing version views are named
    ["<version>.<table>"] and parsed as qualified names. *)

(** Canonical relation of a table version: a view (or pass-through to the
    data table) with the delta code attached. *)
let table_version ~id ~table = Fmt.str "tv!%d!%s" id table

(** Physical data table of a materialized table version. *)
let data_table ~id ~table = Fmt.str "d!%d!%s" id table

(** Auxiliary relation of an SMO instance ([kind] e.g. "rest", "lplus"). *)
let aux ~smo_id kind = Fmt.str "aux!%d!%s" smo_id kind

(** Skolem (identifier-generating) function of an SMO instance. *)
let skolem ~smo_id kind = Fmt.str "sk!%d!%s" smo_id kind

(** User-facing view for a table in a schema version. *)
let version_view ~version ~table = version ^ "." ^ table

let trigger ~target event =
  let ev =
    match (event : Minidb.Sql_ast.trigger_event) with
    | On_insert -> "ins"
    | On_update -> "upd"
    | On_delete -> "del"
  in
  Fmt.str "trg!%s!%s" target ev

(** The global identifier sequence function (row keys); registered once per
    database, never rolled back. *)
let global_id_function = "inverda!nextid"

(** Variant of a canonical table-version view used as the write target when a
    write arrives across the given SMO: same contents, but its triggers skip
    that SMO's auxiliary maintenance (preventing double maintenance and
    self-wipes). *)
let via name ~smo_id = Fmt.str "%s@%d" name smo_id
