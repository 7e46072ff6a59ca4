(** Static analyzer for the BiDEL / InVerDa stack.

    Three layers, one diagnostic currency ({!Diagnostic.t}: stable code,
    severity, message, source span):

    - {!Script_check} ([BDL0xx]) lints parsed evolution scripts against the
      schema versions they build up;
    - {!Rule_check} ([DLG0xx]) checks Datalog mapping rule sets for range
      restriction, negation safety, stratification and arity consistency;
    - {!Sql_check} ([IVD0xx]) typechecks generated delta code (views,
      triggers, backfill DML) against a catalog snapshot before installation;
    - {!Verify} ([VRF0xx]) proves (or refutes, with minimized
      counterexamples) the bidirectionality laws of SMO rule sets and the
      semantic equivalence of Datalog programs, on top of the {!Symbolic}
      chase evaluator.

    The library deliberately depends only on the engine, the Datalog core and
    the BiDEL front end — not on the InVerDa runtime — so both the runtime
    and standalone tools (the [lint] CLI) can call it. *)

module Diagnostic = Diagnostic
module Script_check = Script_check
module Rule_check = Rule_check
module Sql_check = Sql_check
module Symbolic = Symbolic
module Verify = Verify

let check_script = Script_check.check_script
let check_rules = Rule_check.check_rules
let check_delta = Sql_check.check_delta

(** Lint BiDEL source text: lex and parse (reporting the first error as a
    single [BDL000] diagnostic) and run {!check_script}. *)
let lint_source ?env src : Diagnostic.t list =
  match Bidel.Parser.script_of_string_located src with
  | script -> Script_check.check_script ?env script
  | exception Bidel.Parser.Parse_error msg ->
    [ Diagnostic.error "BDL000" "syntax error: %s" msg ]
  | exception Minidb.Sql_lexer.Lex_error (msg, off) ->
    let p = Minidb.Sql_lexer.pos_of_offset src off in
    let span =
      { Bidel.Ast.line = p.line; col = p.col; end_line = p.line; end_col = p.col }
    in
    [ Diagnostic.error "BDL000" ~span "syntax error: %s" msg ]
