(** The schema version catalog (Section 3 of the paper): a directed acyclic
    hypergraph whose vertices are {e table versions} and whose hyperedges are
    {e SMO instances}, together with each SMO's materialization state and the
    mapping from schema versions to their table versions.

    This module is pure bookkeeping; SQL generation lives in {!Codegen} and
    data movement in {!Migration}. *)

type table_version = {
  tv_id : int;
  tv_table : string;  (** logical table name *)
  tv_cols : string list;  (** payload columns (the key [p] is implicit) *)
  mutable tv_in : int option;  (** the SMO that created this version *)
  mutable tv_out : int list;  (** SMOs consuming this version *)
}

type smo_instance = {
  si_id : int;
  si_smo : Bidel.Ast.smo;
  si_inst : Bidel.Smo_semantics.instance;
  si_source_tvs : int list;
  si_target_tvs : int list;
  mutable si_materialized : bool;
      (** true = the data lives on the target side; CREATE TABLE SMOs are
          always materialized *)
}

type schema_version = {
  sv_name : string;
  sv_parent : string option;
  mutable sv_tables : (string * int) list;  (** logical name -> tv id *)
}

type t = {
  mutable next_id : int;
  table_versions : (int, table_version) Hashtbl.t;
  smos : (int, smo_instance) Hashtbl.t;
  mutable versions : schema_version list;  (** in creation order *)
}

exception Catalog_error of string

val create : unit -> t

val fresh_id : t -> int

val tv : t -> int -> table_version
(** Raises {!Catalog_error} on unknown ids; likewise {!smo}, {!version}. *)

val smo : t -> int -> smo_instance

val find_version : t -> string -> schema_version option

val version : t -> string -> schema_version

val version_exists : t -> string -> bool

val all_smos : t -> smo_instance list
(** In creation order (which is a topological order of the genealogy). *)

val all_table_versions : t -> table_version list

val tv_name : table_version -> string
(** The canonical relation name of a table version. *)

val is_physical : t -> table_version -> bool
(** Is this table version's data table present? True iff its creating SMO is
    materialized and no outgoing SMO is. *)

(** Section 6's case analysis for generating a table version's delta code. *)
type access_case =
  | Local  (** case 1: the data table is present *)
  | Forwards of int  (** case 2: through this materialized outgoing SMO *)
  | Backwards of int  (** case 3: through the virtualized incoming SMO *)

val access_case : t -> table_version -> access_case

(** {1 Evolution} *)

val apply_smo :
  t ->
  register_skolem:(string -> unit) ->
  tables:(string * int) list ref ->
  Bidel.Ast.smo ->
  smo_instance
(** Apply one SMO to an evolving version's table map (consuming its source
    tables, creating target table versions and the SMO instance).
    [register_skolem] is invoked for every identifier-generating function the
    instance declares. *)

val create_schema_version :
  t ->
  register_skolem:(string -> unit) ->
  name:string ->
  from:string option ->
  smos:Bidel.Ast.smo list ->
  schema_version * smo_instance list

type evolution_mark
(** The catalog state before an evolution: the id counter and the version
    list. Constant size. *)

val evolution_mark : t -> evolution_mark

val rollback_evolution : t -> evolution_mark -> unit
(** Take back every schema version, table version and SMO instance created
    since the mark: remove them, unlink the removed SMOs from their sources'
    [tv_out] and restore [next_id] (the ids are handed out again, as a
    recovered catalog would). *)

val drop_schema_version : t -> string -> unit
(** Removes the version from the catalog; SMO instances and table versions
    stay while they connect or carry data for the remaining versions. *)

(** {1 Materialization schemas (Section 7)} *)

val valid_materialization : t -> int list -> bool
(** Conditions (55)/(56) of the paper, plus "CREATE TABLE SMOs are always
    materialized". *)

val current_materialization : t -> int list

type mat_snapshot
(** Opaque snapshot of every SMO instance's materialization flag. *)

val snapshot_materialization : t -> mat_snapshot
(** Cheap copy of the mutable [si_materialized] flags, for migration
    rollback. *)

val restore_materialization : t -> mat_snapshot -> unit
(** Write the snapshotted flags back. Only valid on the genealogy the
    snapshot was taken from (the set of SMO ids must be unchanged). *)

val materialization_for_tables : t -> int list -> int list
(** The materialization schema that puts the data exactly at the given table
    versions: all SMOs on the paths from the roots to them. *)

val enumerate_materializations : t -> int list list
(** All valid materialization schemas (exponential in independent SMOs; used
    by Table 2 and the Figure 11 sweep at example scale). *)

val physical_tables_for : t -> int list -> table_version list
(** The physical table schema a materialization implies. *)
