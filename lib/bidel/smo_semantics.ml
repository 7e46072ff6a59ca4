(** Bidirectional semantics of BiDEL SMOs as Datalog rule templates.

    Every SMO instance is described by two mapping rule sets, following
    Section 4 and Appendix B of the paper:

    - [gamma_tgt] derives the target-side relations (target data tables plus
      target-side auxiliaries) from the source-side relations, and
    - [gamma_src] derives the source-side relations (source data tables plus
      source-side auxiliaries) from the target-side relations.

    Auxiliary tables capture what the basic mapping would lose: split twins
    ([R-], [R*], [S+], [S-], [S*]), dropped-column values ([B]), unmatched
    join partners ([L+], [R+]), archive copies of dropped tables, and the
    identifier mappings ([ID]) of FK/condition decompositions and joins.

    Two deliberate deviations from the paper's appendix, both documented in
    DESIGN.md:

    - identifier-generating skolem functions ([idT] et al.) never appear in
      the mapping rules used for views; instead the [ID] auxiliaries are kept
      total eagerly (backfilled at evolution time by the [backfill] rules and
      maintained by the write triggers). This avoids the paper's informal
      old/new-state sequencing ([To]/[Tn]) inside view definitions.
    - rows whose payload is entirely NULL on one side of a PK/FK decompose
      are treated as absent on that side (the paper's omega-padding
      convention, applied consistently).

    All relations carry the InVerDa-managed key as their first column,
    conventionally called [p]. *)

open Ast
module D = Datalog.Ast
module Sql = Minidb.Sql_ast
module Value = Minidb.Value

type rel = { rel_name : string; rel_cols : string list }
(** First column is the key. *)

type instance = {
  spec : smo;
  sources : rel list;
  targets : rel list;
  aux_src : rel list;  (** physical while the SMO is virtualized *)
  aux_tgt : rel list;  (** physical while the SMO is materialized *)
  aux_both : rel list;  (** physical in both states (pair-id tables) *)
  gamma_tgt : D.t;
  gamma_src : D.t;
  backfill : D.t;
      (** evolution-time rules populating ID auxiliaries for pre-existing
          source data; the only rules that may call skolem functions *)
  state_updates : (string * string) list;
      (** [(new_pred, state_pred)]: gamma_src derives [new_pred] as the
          updated contents of the stateful auxiliary [state_pred]
          (pair-identifier tables of condition decomposes/joins) *)
}

exception Semantics_error of string

let error fmt = Fmt.kstr (fun s -> raise (Semantics_error s)) fmt

(* --- small helpers -------------------------------------------------------- *)

let key = "p"

let pv = D.Var key

let null = D.Cst Value.Null

let _nulls n = List.init n (fun _ -> null)

let anon n = List.init n (fun _ -> D.Anon)

let atom = D.atom

let ( <-- ) head body = D.rule head body

(* Datalog negation of a condition is closed-world: "not (e is true)".
   Plain SQL NOT would drop NULL-valued conditions from both branches. *)
let sql_not e =
  Sql.Unop (Sql.Not, Sql.Fun ("COALESCE", [ e; Sql.Const (Value.Bool false) ]))

let sql_and a b = Sql.Binop (Sql.And, a, b)

let sql_or a b = Sql.Binop (Sql.Or, a, b)

let sql_col c = Sql.Col (None, c)

(** NULL-safe equality of two columns (omega is an ordinary value in the
    paper's Datalog). *)
let nullsafe_eq a b =
  sql_or
    (Sql.Binop (Sql.Eq, a, b))
    (sql_and (Sql.Is_null (a, false)) (Sql.Is_null (b, false)))

(** [payload <> omega]: at least one column is non-NULL. *)
let not_all_null cols =
  match cols with
  | [] -> D.Cond (Sql.Const (Value.Bool true))
  | c :: rest ->
    D.Cond
      (sql_not
         (List.fold_left
            (fun acc x -> sql_and acc (Sql.Is_null (sql_col x, false)))
            (Sql.Is_null (sql_col c, false))
            rest))

(** [payload = omega]: every column is NULL. *)
let all_null cols =
  match cols with
  | [] -> D.Cond (Sql.Const (Value.Bool false))
  | c :: rest ->
    D.Cond
      (List.fold_left
         (fun acc x -> sql_and acc (Sql.Is_null (sql_col x, false)))
         (Sql.Is_null (sql_col c, false))
         rest)

(** [A <> A'] over two variable lists (twin separation test). *)
let lists_differ vars vars' =
  match List.combine vars vars' with
  | [] -> D.Cond (Sql.Const (Value.Bool false))
  | (a, b) :: rest ->
    D.Cond
      (sql_not
         (List.fold_left
            (fun acc (x, y) -> sql_and acc (nullsafe_eq (sql_col x) (sql_col y)))
            (nullsafe_eq (sql_col a) (sql_col b))
            rest))

let prime v = v ^ "'"

let _rename_vars_expr mapping (e : Sql.expr) =
  let rec go e =
    match (e : Sql.expr) with
    | Sql.Col (None, c) -> (
      match List.assoc_opt (String.lowercase_ascii c) mapping with
      | Some c' -> Sql.Col (None, c')
      | None -> e)
    | Sql.Col (Some _, _) | Sql.Const _ | Sql.Param _ -> e
    | Sql.Unop (op, a) -> Sql.Unop (op, go a)
    | Sql.Binop (op, a, b) -> Sql.Binop (op, go a, go b)
    | Sql.Is_null (a, n) -> Sql.Is_null (go a, n)
    | Sql.Fun (f, args) -> Sql.Fun (f, List.map go args)
    | Sql.Case (arms, d) ->
      Sql.Case (List.map (fun (c, v) -> (go c, go v)) arms, Option.map go d)
    | Sql.In_list (a, items, n) -> Sql.In_list (go a, List.map go items, n)
    | Sql.Exists _ | Sql.In_query _ | Sql.Scalar _ -> e
  in
  go e

let skolem_call fname args = Sql.Fun (fname, List.map sql_col args)

(* --- the per-SMO templates -------------------------------------------------- *)

let empty_instance smo =
  {
    spec = smo;
    sources = [];
    targets = [];
    aux_src = [];
    aux_tgt = [];
    aux_both = [];
    gamma_tgt = [];
    gamma_src = [];
    backfill = [];
    state_updates = [];
  }

let mkrel name cols = { rel_name = name; rel_cols = key :: cols }

(* --- the DECOMPOSE family ----------------------------------------------------

   One builder covers DECOMPOSE ON PK/FK/COND and, by exchanging the two
   mapping directions, OUTER JOIN ON PK/FK/COND and the inner JOIN ON FK/COND.
   [padding] selects what happens to target-side rows without a partner when
   mapping back to the source: [`Omega] pads with NULLs (decompose / outer
   join), [`Aux] preserves them in unmatched-row auxiliaries (inner join,
   B.6's S+/T+). The result is in "decompose orientation": [sources] is the
   combined table, [targets] are the two parts. *)
let decompose_family ~smo ~table_name ~table_cols ~left:(lname, lcols)
    ~right:(rname, rcols) ~linkage ~aux_name ~skolem_name ~padding =
  let base = empty_instance smo in
  let r = mkrel table_name table_cols in
  List.iter
    (fun c ->
      if not (List.mem c table_cols) then
        error "DECOMPOSE/JOIN: column %s is not a column of the combined table" c)
    (lcols @ rcols);
  (match List.filter (fun c -> List.mem c rcols) lcols with
  | [] -> ()
  | c :: _ -> error "DECOMPOSE/JOIN: column %s assigned to both sides" c);
  let lv = D.vars lcols and rv = D.vars rcols in
  let full_args = pv :: List.map (fun c -> D.v c) table_cols in
  let padded keep_cols =
    pv :: List.map (fun c -> if List.mem c keep_cols then D.v c else null) table_cols
  in
  match linkage with
  | On_pk ->
    if List.length (lcols @ rcols) <> List.length table_cols then
      error "DECOMPOSE ON PK: the two parts must partition the columns";
    let s = mkrel lname lcols and t = mkrel rname rcols in
    let s_plus = mkrel (aux_name "lplus") lcols in
    let t_plus = mkrel (aux_name "rplus") rcols in
    let pad_src_rules =
      match padding with
      | `Omega ->
        [
          (* (136)/(137) *)
          atom r.rel_name (padded lcols)
          <-- [ D.Pos (atom s.rel_name (pv :: lv));
                D.Neg (atom t.rel_name (pv :: anon (List.length rcols))) ];
          atom r.rel_name (padded rcols)
          <-- [ D.Pos (atom t.rel_name (pv :: rv));
                D.Neg (atom s.rel_name (pv :: anon (List.length lcols))) ];
        ]
      | `Aux ->
        [
          (* (178)/(179) in join orientation *)
          atom s_plus.rel_name (pv :: lv)
          <-- [ D.Pos (atom s.rel_name (pv :: lv));
                D.Neg (atom t.rel_name (pv :: anon (List.length rcols))) ];
          atom t_plus.rel_name (pv :: rv)
          <-- [ D.Pos (atom t.rel_name (pv :: rv));
                D.Neg (atom s.rel_name (pv :: anon (List.length lcols))) ];
        ]
    in
    let pad_tgt_rules =
      match padding with
      | `Omega ->
        [
          (* (133)/(134) with the omega convention *)
          atom s.rel_name (pv :: lv)
          <-- [ D.Pos (atom r.rel_name full_args); not_all_null lcols ];
          atom t.rel_name (pv :: rv)
          <-- [ D.Pos (atom r.rel_name full_args); not_all_null rcols ];
        ]
      | `Aux ->
        [
          (* (180)-(183) in join orientation *)
          atom s.rel_name (pv :: lv) <-- [ D.Pos (atom r.rel_name full_args) ];
          atom s.rel_name (pv :: lv) <-- [ D.Pos (atom s_plus.rel_name (pv :: lv)) ];
          atom t.rel_name (pv :: rv) <-- [ D.Pos (atom r.rel_name full_args) ];
          atom t.rel_name (pv :: rv) <-- [ D.Pos (atom t_plus.rel_name (pv :: rv)) ];
        ]
    in
    {
      base with
      sources = [ r ];
      targets = [ s; t ];
      aux_src = (match padding with `Omega -> [] | `Aux -> [ s_plus; t_plus ]);
      gamma_tgt = pad_tgt_rules;
      gamma_src =
        ((* (135) / (177) *)
         atom r.rel_name full_args
         <-- [ D.Pos (atom s.rel_name (pv :: lv));
               D.Pos (atom t.rel_name (pv :: rv)) ])
        :: pad_src_rules;
    }
  | On_fk fk ->
    (* B.3: the right part is deduplicated under fresh identifiers; ID(p, fk)
       maps each combined row to its partner and is kept total eagerly. *)
    if List.mem fk lcols then
      error "DECOMPOSE ON FK: foreign key column %s clashes with a column of %s"
        fk lname;
    if List.length (lcols @ rcols) <> List.length table_cols then
      error "DECOMPOSE ON FK: the two parts must partition the columns";
    let s = mkrel lname (lcols @ [ fk ]) in
    let t = mkrel rname rcols in
    let id = mkrel (aux_name "id") [ fk ] in
    (* the fk variable must be distinct from all column variables: the fk
       column name may shadow a moved source column (the TasKy example) *)
    let fk_var = "fk!" ^ fk in
    let fkv = D.v fk_var in
    let sk = skolem_name "id" in
    let orphan_src_rules =
      match padding with
      | `Omega ->
        [
          (* (148): fk NULL means no partner *)
          atom r.rel_name (padded lcols)
          <-- [ D.Pos (atom s.rel_name ((pv :: lv) @ [ null ])) ];
          (* (149): orphans resurface omega-padded under their own id *)
          atom r.rel_name
            (fkv :: List.map (fun c -> if List.mem c rcols then D.v c else null)
                      table_cols)
          <-- [ D.Pos (atom t.rel_name (fkv :: rv));
                D.Neg (atom s.rel_name ((D.Anon :: anon (List.length lcols)) @ [ fkv ])) ];
        ]
      | `Aux ->
        (* inner JOIN ON FK: unmatched rows live in auxiliaries instead *)
        []
    in
    let s_plus = mkrel (aux_name "lplus") (lcols @ [ fk ]) in
    let t_plus = mkrel (aux_name "rplus") rcols in
    let aux_unmatched_src, aux_unmatched_tgt =
      match padding with
      | `Omega -> ([], [])
      | `Aux ->
        ( [
            atom s_plus.rel_name ((pv :: lv) @ [ fkv ])
            <-- [ D.Pos (atom s.rel_name ((pv :: lv) @ [ fkv ]));
                  D.Cond (Sql.Is_null (sql_col fk_var, false)) ];
            atom t_plus.rel_name (fkv :: rv)
            <-- [ D.Pos (atom t.rel_name (fkv :: rv));
                  D.Neg (atom s.rel_name ((D.Anon :: anon (List.length lcols)) @ [ fkv ])) ];
          ],
          [
            atom s.rel_name ((pv :: lv) @ [ null ])
            <-- [ D.Pos (atom s_plus.rel_name ((pv :: lv) @ [ D.Anon ])) ];
            atom t.rel_name (fkv :: rv) <-- [ D.Pos (atom t_plus.rel_name (fkv :: rv)) ];
          ] )
    in
    {
      base with
      sources = [ r ];
      targets = [ s; t ];
      aux_src =
        (id :: (match padding with `Omega -> [] | `Aux -> [ s_plus; t_plus ]));
      gamma_tgt =
        [
          (* (141): partner rows via the ID mapping; NULL markers excluded *)
          atom t.rel_name (fkv :: rv)
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Pos (atom id.rel_name [ pv; fkv ]);
                D.Cond (Sql.Is_null (sql_col fk_var, true)) ];
          (* (144)/(145) *)
          atom s.rel_name ((pv :: lv) @ [ fkv ])
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Pos (atom id.rel_name [ pv; fkv ]);
                (* orphan rows resurfaced by (149) carry their own id as key
                   and must not reappear as left-target rows *)
                D.Cond
                  (sql_or
                     (Sql.Is_null (sql_col fk_var, false))
                     (Sql.Binop (Sql.Neq, sql_col key, sql_col fk_var))) ];
        ]
        @ aux_unmatched_tgt;
      gamma_src =
        [
          (* (147) *)
          atom r.rel_name full_args
          <-- [ D.Pos (atom s.rel_name ((pv :: lv) @ [ fkv ]));
                D.Pos (atom t.rel_name (fkv :: rv)) ];
          (* (150)-(152) *)
          atom id.rel_name [ pv; fkv ]
          <-- [ D.Pos (atom s.rel_name ((pv :: anon (List.length lcols)) @ [ fkv ]));
                D.Pos (atom t.rel_name (fkv :: anon (List.length rcols))) ];
          atom id.rel_name [ pv; null ]
          <-- [ D.Pos (atom s.rel_name ((pv :: anon (List.length lcols)) @ [ null ])) ];
          atom id.rel_name [ fkv; fkv ]
          <-- [ D.Pos (atom t.rel_name (fkv :: anon (List.length rcols)));
                D.Neg (atom s.rel_name ((D.Anon :: anon (List.length lcols)) @ [ fkv ])) ];
        ]
        @ orphan_src_rules @ aux_unmatched_src;
      backfill =
        [
          (* (142): assign partner ids to existing rows; the skolem memo
             deduplicates equal payloads *)
          atom id.rel_name [ pv; fkv ]
          <-- [ D.Pos (atom r.rel_name full_args); not_all_null rcols;
                D.Assign (fk_var, skolem_call sk rcols) ];
          atom id.rel_name [ pv; null ]
          <-- [ D.Pos (atom r.rel_name full_args); all_null rcols ];
        ];
    }
  | On_cond cond ->
    (* B.4/B.6: both parts get fresh identifiers; the pair table ID(p, s!, t!)
       is physical in both materialization states. *)
    if List.length (lcols @ rcols) <> List.length table_cols then
      error "DECOMPOSE ON COND: the two parts must partition the columns";
    let s = mkrel lname lcols and t = mkrel rname rcols in
    let sid = "s!" and tid = "t!" in
    let id = mkrel (aux_name "id") [ sid; tid ] in
    let id_new = mkrel (aux_name "id_new") [ sid; tid ] in
    let unpaired = mkrel (aux_name "unpaired") [ sid; tid ] in
    let s_plus = mkrel (aux_name "lplus") lcols in
    let t_plus = mkrel (aux_name "rplus") rcols in
    let pad_src_rules =
      (* the guards use the *new* pair state IDn (rules (170)/(171) and
         (191)/(192)): a payload freshly joined by rule (166) must not also
         resurface one-sided *)
      match padding with
      | `Omega ->
        [
          atom r.rel_name
            (D.v sid
            :: List.map (fun c -> if List.mem c lcols then D.v c else null) table_cols)
          <-- [ D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Neg (atom id_new.rel_name [ D.Anon; D.v sid; D.Anon ]) ];
          atom r.rel_name
            (D.v tid
            :: List.map (fun c -> if List.mem c rcols then D.v c else null) table_cols)
          <-- [ D.Pos (atom t.rel_name (D.v tid :: rv));
                D.Neg (atom id_new.rel_name [ D.Anon; D.Anon; D.v tid ]) ];
        ]
      | `Aux ->
        [
          atom s_plus.rel_name (D.v sid :: lv)
          <-- [ D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Neg (atom id_new.rel_name [ D.Anon; D.v sid; D.Anon ]) ];
          atom t_plus.rel_name (D.v tid :: rv)
          <-- [ D.Pos (atom t.rel_name (D.v tid :: rv));
                D.Neg (atom id_new.rel_name [ D.Anon; D.Anon; D.v tid ]) ];
        ]
    in
    let pad_tgt_rules =
      match padding with
      | `Omega -> []
      | `Aux ->
        [
          (* (195)/(198) *)
          atom s.rel_name (D.v sid :: lv) <-- [ D.Pos (atom s_plus.rel_name (D.v sid :: lv)) ];
          atom t.rel_name (D.v tid :: rv) <-- [ D.Pos (atom t_plus.rel_name (D.v tid :: rv)) ];
        ]
    in
    {
      base with
      sources = [ r ];
      targets = [ s; t ];
      aux_both = [ id ];
      aux_tgt = [ unpaired ];
      aux_src =
        (id_new :: (match padding with `Omega -> [] | `Aux -> [ s_plus; t_plus ]));
      gamma_tgt =
        [
          (* (157)/(160): payloads reachable through the pair table *)
          atom s.rel_name (D.v sid :: lv)
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Pos (atom id.rel_name [ pv; D.v sid; D.Anon ]);
                not_all_null lcols ];
          atom t.rel_name (D.v tid :: rv)
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Pos (atom id.rel_name [ pv; D.Anon; D.v tid ]);
                not_all_null rcols ];
          (* (158)/(161): rows without a recorded pair (e.g. omega-padded
             resurfaced rows) keep their own key as part identifier *)
          atom s.rel_name (pv :: lv)
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Neg (atom id.rel_name [ pv; D.Anon; D.Anon ]);
                not_all_null lcols ];
          atom t.rel_name (pv :: rv)
          <-- [ D.Pos (atom r.rel_name full_args);
                D.Neg (atom id.rel_name [ pv; D.Anon; D.Anon ]);
                not_all_null rcols ];
          (* (164): remember condition-matching pairs that are not joined *)
          atom unpaired.rel_name [ pv; D.v sid; D.v tid ]
          <-- [ D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Pos (atom t.rel_name (D.v tid :: rv));
                D.Cond cond;
                D.Neg (atom id.rel_name [ D.Anon; D.v sid; D.v tid ]);
                D.Assign (key, skolem_call (skolem_name "idr") [ sid; tid ]) ];
        ]
        @ pad_tgt_rules;
      gamma_src =
        [
          (* (165): recombine pairs recorded in ID *)
          atom r.rel_name full_args
          <-- [ D.Pos (atom id.rel_name [ pv; D.v sid; D.v tid ]);
                D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Pos (atom t.rel_name (D.v tid :: rv)) ];
          (* one-sided rows recorded with a NULL partner id *)
          atom r.rel_name
            (pv :: List.map (fun c -> if List.mem c lcols then D.v c else null)
                     table_cols)
          <-- [ D.Pos (atom id.rel_name [ pv; D.v sid; null ]);
                D.Pos (atom s.rel_name (D.v sid :: lv)) ];
          atom r.rel_name
            (pv :: List.map (fun c -> if List.mem c rcols then D.v c else null)
                     table_cols)
          <-- [ D.Pos (atom id.rel_name [ pv; null; D.v tid ]);
                D.Pos (atom t.rel_name (D.v tid :: rv)) ];
          (* (166): unrecorded pairs matching the condition re-join under a
             fresh id unless deliberately unpaired *)
          atom r.rel_name full_args
          <-- [ D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Pos (atom t.rel_name (D.v tid :: rv));
                D.Cond cond;
                D.Neg (atom unpaired.rel_name [ D.Anon; D.v sid; D.v tid ]);
                D.Neg (atom id.rel_name [ D.Anon; D.v sid; D.v tid ]);
                D.Assign (key, skolem_call (skolem_name "idr") [ sid; tid ]) ];
          (* (167)/(168): the new pair-table state IDn = old entries plus the
             pairs freshly joined by (166) *)
          atom id_new.rel_name [ pv; D.v sid; D.v tid ]
          <-- [ D.Pos (atom id.rel_name [ pv; D.v sid; D.v tid ]) ];
          atom id_new.rel_name [ pv; D.v sid; D.v tid ]
          <-- [ D.Pos (atom s.rel_name (D.v sid :: lv));
                D.Pos (atom t.rel_name (D.v tid :: rv));
                D.Cond cond;
                D.Neg (atom unpaired.rel_name [ D.Anon; D.v sid; D.v tid ]);
                D.Neg (atom id.rel_name [ D.Anon; D.v sid; D.v tid ]);
                D.Assign (key, skolem_call (skolem_name "idr") [ sid; tid ]) ];
        ]
        @ pad_src_rules;
      state_updates = [ (id_new.rel_name, id.rel_name) ];
      backfill =
        [
          (* (157)-(163): assign part identifiers to every existing row; the
             skolem memos deduplicate equal payloads. A side whose payload is
             entirely NULL gets a NULL identifier (the omega convention). *)
          atom id.rel_name [ pv; D.v sid; D.v tid ]
          <-- [ D.Pos (atom r.rel_name full_args);
                not_all_null lcols; not_all_null rcols;
                D.Assign (sid, skolem_call (skolem_name "ids") lcols);
                D.Assign (tid, skolem_call (skolem_name "idt") rcols) ];
          atom id.rel_name [ pv; D.v sid; null ]
          <-- [ D.Pos (atom r.rel_name full_args);
                not_all_null lcols; all_null rcols;
                D.Assign (sid, skolem_call (skolem_name "ids") lcols) ];
          atom id.rel_name [ pv; null; D.v tid ]
          <-- [ D.Pos (atom r.rel_name full_args);
                all_null lcols; not_all_null rcols;
                D.Assign (tid, skolem_call (skolem_name "idt") rcols) ];
        ];
    }

(** Exchange the two mapping directions of a decompose-orientation instance,
    yielding the corresponding JOIN instance. *)
let invert_instance smo inst =
  {
    inst with
    spec = smo;
    sources = inst.targets;
    targets = inst.sources;
    aux_src = inst.aux_tgt;
    aux_tgt = inst.aux_src;
    gamma_tgt = inst.gamma_src;
    gamma_src = inst.gamma_tgt;
  }

let rec instantiate ~smo ~source_cols ~name_src ~name_tgt ~aux_name ~skolem_name =
  let src table = name_src table in
  let tgt table = name_tgt table in
  let rel name cols = mkrel name cols in
  let base = empty_instance smo in
  match smo with
  | Create_table { table; columns } ->
    { base with targets = [ rel (tgt table) columns ] }
  | Drop_table { table } ->
    (* Materializing a table drop moves the data into an archive auxiliary so
       that the old schema version keeps working. *)
    let cols = source_cols table in
    let r = rel (src table) cols in
    let archive = rel (aux_name "archive") cols in
    let vs = D.vars cols in
    {
      base with
      sources = [ r ];
      aux_tgt = [ archive ];
      gamma_tgt =
        [ atom archive.rel_name (pv :: vs) <-- [ D.Pos (atom r.rel_name (pv :: vs)) ] ];
      gamma_src =
        [ atom r.rel_name (pv :: vs) <-- [ D.Pos (atom archive.rel_name (pv :: vs)) ] ];
    }
  | Rename_table { table; into } ->
    let cols = source_cols table in
    let r = rel (src table) cols and r' = rel (tgt into) cols in
    let vs = D.vars cols in
    {
      base with
      sources = [ r ];
      targets = [ r' ];
      gamma_tgt =
        [ atom r'.rel_name (pv :: vs) <-- [ D.Pos (atom r.rel_name (pv :: vs)) ] ];
      gamma_src =
        [ atom r.rel_name (pv :: vs) <-- [ D.Pos (atom r'.rel_name (pv :: vs)) ] ];
    }
  | Rename_column { table; col; into } ->
    let cols = source_cols table in
    if not (List.mem col cols) then
      error "RENAME COLUMN: no column %s in %s" col table;
    if List.mem into cols then
      error "RENAME COLUMN: column %s already exists" into;
    let cols' = List.map (fun c -> if c = col then into else c) cols in
    let r = rel (src table) cols and r' = rel (tgt table) cols' in
    let vs = D.vars cols in
    {
      base with
      sources = [ r ];
      targets = [ r' ];
      gamma_tgt =
        [ atom r'.rel_name (pv :: vs) <-- [ D.Pos (atom r.rel_name (pv :: vs)) ] ];
      gamma_src =
        [ atom r.rel_name (pv :: vs) <-- [ D.Pos (atom r'.rel_name (pv :: vs)) ] ];
    }
  | Add_column { table; col; default } ->
    (* B.1: the new column is computed by f unless an explicit value was
       written through the target version (auxiliary B). *)
    let cols = source_cols table in
    if List.mem col cols then
      error "ADD COLUMN: column %s already exists in %s" col table;
    let r = rel (src table) cols in
    let r' = rel (tgt table) (cols @ [ col ]) in
    let b = rel (aux_name "b") [ col ] in
    let vs = D.vars cols in
    {
      base with
      sources = [ r ];
      targets = [ r' ];
      aux_src = [ b ];
      gamma_tgt =
        [
          (* (126)/(127) *)
          atom r'.rel_name ((pv :: vs) @ [ D.v col ])
          <-- [ D.Pos (atom r.rel_name (pv :: vs));
                D.Neg (atom b.rel_name [ pv; D.Anon ]);
                D.Assign (col, default) ];
          atom r'.rel_name ((pv :: vs) @ [ D.v col ])
          <-- [ D.Pos (atom r.rel_name (pv :: vs));
                D.Pos (atom b.rel_name [ pv; D.v col ]) ];
        ];
      gamma_src =
        [
          (* (128)/(129) *)
          atom r.rel_name (pv :: vs)
          <-- [ D.Pos (atom r'.rel_name ((pv :: vs) @ [ D.Anon ])) ];
          atom b.rel_name [ pv; D.v col ]
          <-- [ D.Pos (atom r'.rel_name ((pv :: anon (List.length cols)) @ [ D.v col ])) ];
        ];
    }
  | Drop_column { table; col; default } ->
    (* inverse of ADD COLUMN: auxiliary B preserves the dropped values while
       the SMO is materialized *)
    let cols = source_cols table in
    if not (List.mem col cols) then
      error "DROP COLUMN: no column %s in %s" col table;
    let kept = List.filter (fun c -> c <> col) cols in
    let r = rel (src table) cols in
    let r' = rel (tgt table) kept in
    let b = rel (aux_name "b") [ col ] in
    let keptv = D.vars kept in
    let full_args = pv :: List.map (fun c -> D.v c) cols in
    {
      base with
      sources = [ r ];
      targets = [ r' ];
      aux_tgt = [ b ];
      gamma_tgt =
        [
          atom r'.rel_name (pv :: keptv) <-- [ D.Pos (atom r.rel_name full_args) ];
          atom b.rel_name [ pv; D.v col ] <-- [ D.Pos (atom r.rel_name full_args) ];
        ];
      gamma_src =
        [
          atom r.rel_name full_args
          <-- [ D.Pos (atom r'.rel_name (pv :: keptv));
                D.Pos (atom b.rel_name [ pv; D.v col ]) ];
          atom r.rel_name full_args
          <-- [ D.Pos (atom r'.rel_name (pv :: keptv));
                D.Neg (atom b.rel_name [ pv; D.Anon ]);
                D.Assign (col, default) ];
        ];
    }
  | Split { table; left = lname, lcond; right } -> (
    let cols = source_cols table in
    let t = rel (src table) cols in
    let vs = D.vars cols in
    let t_prime = rel (aux_name "rest") cols in
    match right with
    | None ->
      (* single-partition split (the Do! example): R* remembers
         target-inserted rows violating cR, T' keeps the rest *)
      let r = rel (tgt lname) cols in
      let r_star = rel (aux_name "lstar") [] in
      {
        base with
        sources = [ t ];
        targets = [ r ];
        aux_src = [ r_star ];
        aux_tgt = [ t_prime ];
        gamma_tgt =
          [
            atom r.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs)); D.Cond lcond;
                  D.Neg (atom r_star.rel_name [ pv ]) ];
            atom r.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs));
                  D.Pos (atom r_star.rel_name [ pv ]) ];
            atom t_prime.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs)); D.Cond (sql_not lcond);
                  D.Neg (atom r_star.rel_name [ pv ]) ];
          ];
        gamma_src =
          [
            atom t.rel_name (pv :: vs) <-- [ D.Pos (atom r.rel_name (pv :: vs)) ];
            atom t.rel_name (pv :: vs) <-- [ D.Pos (atom t_prime.rel_name (pv :: vs)) ];
            atom r_star.rel_name [ pv ]
            <-- [ D.Pos (atom r.rel_name (pv :: vs)); D.Cond (sql_not lcond) ];
          ];
      }
    | Some (rname, rcond) ->
      (* the full SPLIT of Section 4, rules (12)-(25) *)
      let r = rel (tgt lname) cols and s = rel (tgt rname) cols in
      let r_minus = rel (aux_name "lminus") [] in
      let r_star = rel (aux_name "lstar") [] in
      let s_plus = rel (aux_name "rplus") cols in
      let s_minus = rel (aux_name "rminus") [] in
      let s_star = rel (aux_name "rstar") [] in
      let vs' = List.map prime cols in
      {
        base with
        sources = [ t ];
        targets = [ r; s ];
        aux_src = [ r_minus; r_star; s_plus; s_minus; s_star ];
        aux_tgt = [ t_prime ];
        gamma_tgt =
          [
            (* (12) *)
            atom r.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs)); D.Cond lcond;
                  D.Neg (atom r_minus.rel_name [ pv ]) ];
            (* (13) *)
            atom r.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs));
                  D.Pos (atom r_star.rel_name [ pv ]) ];
            (* (14) *)
            atom s.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs)); D.Cond rcond;
                  D.Neg (atom s_minus.rel_name [ pv ]);
                  D.Neg (atom s_plus.rel_name (pv :: anon (List.length cols))) ];
            (* (15) *)
            atom s.rel_name (pv :: vs) <-- [ D.Pos (atom s_plus.rel_name (pv :: vs)) ];
            (* (16) *)
            atom s.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs));
                  D.Pos (atom s_star.rel_name [ pv ]);
                  D.Neg (atom s_plus.rel_name (pv :: anon (List.length cols))) ];
            (* (17) *)
            atom t_prime.rel_name (pv :: vs)
            <-- [ D.Pos (atom t.rel_name (pv :: vs));
                  D.Cond (sql_not lcond); D.Cond (sql_not rcond);
                  D.Neg (atom r_star.rel_name [ pv ]);
                  D.Neg (atom s_star.rel_name [ pv ]) ];
          ];
        gamma_src =
          [
            (* (18) *)
            atom t.rel_name (pv :: vs) <-- [ D.Pos (atom r.rel_name (pv :: vs)) ];
            (* (19) *)
            atom t.rel_name (pv :: vs)
            <-- [ D.Pos (atom s.rel_name (pv :: vs));
                  D.Neg (atom r.rel_name (pv :: anon (List.length cols))) ];
            (* (20) *)
            atom t.rel_name (pv :: vs) <-- [ D.Pos (atom t_prime.rel_name (pv :: vs)) ];
            (* (21) *)
            atom r_minus.rel_name [ pv ]
            <-- [ D.Pos (atom s.rel_name (pv :: vs));
                  D.Neg (atom r.rel_name (pv :: anon (List.length cols)));
                  D.Cond lcond ];
            (* (22) *)
            atom r_star.rel_name [ pv ]
            <-- [ D.Pos (atom r.rel_name (pv :: vs)); D.Cond (sql_not lcond) ];
            (* (23) *)
            atom s_plus.rel_name (pv :: vs)
            <-- [ D.Pos (atom s.rel_name (pv :: vs));
                  D.Pos (atom r.rel_name (pv :: D.vars vs'));
                  lists_differ cols vs' ];
            (* (24) *)
            atom s_minus.rel_name [ pv ]
            <-- [ D.Pos (atom r.rel_name (pv :: vs));
                  D.Neg (atom s.rel_name (pv :: anon (List.length cols)));
                  D.Cond rcond ];
            (* (25) *)
            atom s_star.rel_name [ pv ]
            <-- [ D.Pos (atom s.rel_name (pv :: vs)); D.Cond (sql_not rcond) ];
          ];
      })
  | Merge { left = lname, lcond; right = rname, rcond; into } ->
    (* MERGE is the inverse of SPLIT (Appendix A): exchange the directions. *)
    let lcols = source_cols lname and rcols = source_cols rname in
    if lcols <> rcols then
      error "MERGE: %s and %s must have identical columns" lname rname;
    let split_inst =
      instantiate
        ~smo:
          (Split { table = into; left = (lname, lcond); right = Some (rname, rcond) })
        ~source_cols:(fun _ -> lcols)
        ~name_src:(fun _ -> name_tgt into)
        ~name_tgt:name_src ~aux_name ~skolem_name
    in
    invert_instance smo split_inst
  | Decompose { table; left = lname, lcols; right; linkage } -> (
    match right with
    | Some (rname, rcols) ->
      decompose_family ~smo ~table_name:(src table) ~table_cols:(source_cols table)
        ~left:(tgt lname, lcols) ~right:(tgt rname, rcols) ~linkage ~aux_name
        ~skolem_name ~padding:`Omega
    | None ->
      (* projection decompose: a hidden auxiliary keeps the dropped columns *)
      let cols = source_cols table in
      List.iter
        (fun c ->
          if not (List.mem c cols) then
            error "DECOMPOSE: no column %s in %s" c table)
        lcols;
      let dropped = List.filter (fun c -> not (List.mem c lcols)) cols in
      let r = rel (src table) cols in
      let s = rel (tgt lname) lcols in
      let keep = rel (aux_name "keep") dropped in
      let full_args = pv :: List.map (fun c -> D.v c) cols in
      let lv = D.vars lcols and dv = D.vars dropped in
      {
        base with
        sources = [ r ];
        targets = [ s ];
        aux_tgt = [ keep ];
        gamma_tgt =
          [
            atom s.rel_name (pv :: lv) <-- [ D.Pos (atom r.rel_name full_args) ];
            atom keep.rel_name (pv :: dv) <-- [ D.Pos (atom r.rel_name full_args) ];
          ];
        gamma_src =
          [
            atom r.rel_name full_args
            <-- [ D.Pos (atom s.rel_name (pv :: lv));
                  D.Pos (atom keep.rel_name (pv :: dv)) ];
            atom r.rel_name
              (pv
              :: List.map (fun c -> if List.mem c lcols then D.v c else null) cols)
            <-- [ D.Pos (atom s.rel_name (pv :: lv));
                  D.Neg (atom keep.rel_name (pv :: anon (List.length dropped))) ];
          ];
      })
  | Join { left; right; into; linkage; outer } ->
    (* Joins are decompose instances with the directions exchanged (Table 5).
       Outer joins pad missing partners with NULLs; inner joins preserve
       unmatched rows in auxiliaries (B.5/B.6). *)
    let lcols_full = source_cols left and rcols = source_cols right in
    let lcols, combined_cols =
      match linkage with
      | On_fk fk ->
        if not (List.mem fk lcols_full) then
          error "JOIN ON FK: %s has no column %s" left fk;
        let a = List.filter (fun c -> c <> fk) lcols_full in
        (a, a @ rcols)
      | On_pk | On_cond _ -> (lcols_full, lcols_full @ rcols)
    in
    let padding = if outer then `Omega else `Aux in
    let dec =
      decompose_family ~smo ~table_name:(tgt into) ~table_cols:combined_cols
        ~left:(src left, lcols) ~right:(src right, rcols) ~linkage ~aux_name
        ~skolem_name ~padding
    in
    invert_instance smo dec

(** Payload columns of the target tables of an SMO, given the payload columns
    of its source tables (used by the genealogy to compute version schemas). *)
let target_table_cols ~smo ~source_cols =
  match smo with
  | Create_table { table; columns } -> [ (table, columns) ]
  | Drop_table _ -> []
  | Rename_table { table; into } -> [ (into, source_cols table) ]
  | Rename_column { table; col; into } ->
    [ (table, List.map (fun c -> if c = col then into else c) (source_cols table)) ]
  | Add_column { table; col; _ } -> [ (table, source_cols table @ [ col ]) ]
  | Drop_column { table; col; _ } ->
    [ (table, List.filter (fun c -> c <> col) (source_cols table)) ]
  | Split { table; left = lname, _; right } -> (
    let cols = source_cols table in
    match right with
    | Some (rname, _) -> [ (lname, cols); (rname, cols) ]
    | None -> [ (lname, cols) ])
  | Merge { left = lname, _; into; _ } -> [ (into, source_cols lname) ]
  | Decompose { left = lname, lcols; right; linkage; _ } -> (
    let lcols' =
      match linkage, right with
      | On_fk fk, Some _ -> lcols @ [ fk ]
      | _ -> lcols
    in
    match right with
    | Some (rname, rcols) -> [ (lname, lcols'); (rname, rcols) ]
    | None -> [ (lname, lcols) ])
  | Join { left; right; into; linkage; _ } ->
    let lcols_full = source_cols left and rcols = source_cols right in
    let lcols =
      match linkage with
      | On_fk fk -> List.filter (fun c -> c <> fk) lcols_full
      | On_pk | On_cond _ -> lcols_full
    in
    [ (into, lcols @ rcols) ]

(* Every target table is stored as [key :: payload]: a payload column may
   neither repeat nor be named like the key. Checked after the SMO's own,
   more specific checks. *)
let instantiate ~smo ~source_cols ~name_src ~name_tgt ~aux_name ~skolem_name =
  let inst =
    instantiate ~smo ~source_cols ~name_src ~name_tgt ~aux_name ~skolem_name
  in
  List.iter
    (fun (table, cols) ->
      if List.mem key cols then
        error "%s: column %s of %s clashes with the key column" (smo_name smo)
          key table;
      let rec dup = function
        | [] -> ()
        | c :: rest ->
          if List.mem c rest then
            error "%s: duplicate column %s in %s" (smo_name smo) c table;
          dup rest
      in
      dup cols)
    (target_table_cols ~smo ~source_cols);
  inst
