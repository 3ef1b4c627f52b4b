//! Recursive-descent parser: spanned tokens to the [`ast`](crate::script::ast).
//!
//! The grammar is keyword-directed — every statement starts with a word —
//! so one token of lookahead suffices and no statement terminators are
//! needed. All diagnostics are [`ScriptError`]s (stage `Parse`) carrying
//! the span of the offending token.

use crate::scenario::Execution;
use crate::script::ast::{
    Atom, Campaign, EngineSpec, ExperimentsSpec, Item, PlacementSpec, Script, SeedsSpec, Setting,
    Sweep, SweepPoint, SweepValues,
};
use crate::script::lexer::{lex, Tok, Token};
use crate::script::{ScriptError, Span, Spanned};

/// Parse `src` into a [`Script`].
///
/// # Errors
/// [`ScriptError`] (stage `Lex` or `Parse`) with the offending position.
pub fn parse(src: &str) -> Result<Script, ScriptError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(Script { items })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    /// Span of the next token, or of the end of input.
    fn here(&self) -> Span {
        match self.peek() {
            Some(t) => t.span,
            None => self
                .tokens
                .last()
                .map(|t| t.span)
                .unwrap_or(Span { line: 1, col: 1 }),
        }
    }

    fn next(&mut self, what: &str) -> Result<Token, ScriptError> {
        let span = self.here();
        match self.tokens.get(self.pos) {
            Some(t) => {
                self.pos += 1;
                Ok(t.clone())
            }
            None => Err(ScriptError::parse(
                span,
                format!("expected {what}, found end of script"),
            )),
        }
    }

    fn word(&mut self, what: &str) -> Result<(String, Span), ScriptError> {
        let t = self.next(what)?;
        match t.tok {
            Tok::Word(w) => Ok((w, t.span)),
            other => Err(ScriptError::parse(
                t.span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn int(&mut self, what: &str) -> Result<(u64, Span), ScriptError> {
        let t = self.next(what)?;
        match t.tok {
            Tok::Int(n) => Ok((n, t.span)),
            other => Err(ScriptError::parse(
                t.span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    /// A float literal; a bare integer is accepted and widened (`taper 1`
    /// means `taper 1.0`).
    fn number(&mut self, what: &str) -> Result<(f64, Span), ScriptError> {
        let t = self.next(what)?;
        match t.tok {
            Tok::Float(x) => Ok((x, t.span)),
            Tok::Int(n) => Ok((n as f64, t.span)),
            other => Err(ScriptError::parse(
                t.span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn string(&mut self, what: &str) -> Result<(String, Span), ScriptError> {
        let t = self.next(what)?;
        match t.tok {
            Tok::Str(s) => Ok((s, t.span)),
            other => Err(ScriptError::parse(
                t.span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<Span, ScriptError> {
        let t = self.next(what)?;
        if t.tok == tok {
            Ok(t.span)
        } else {
            Err(ScriptError::parse(
                t.span,
                format!("expected {what}, found {}", t.tok),
            ))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek().map(|t| &t.tok) == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_int(&self) -> bool {
        matches!(self.peek().map(|t| &t.tok), Some(Tok::Int(_)))
    }

    fn peek_word(&self, w: &str) -> bool {
        matches!(self.peek().map(|t| &t.tok), Some(Tok::Word(word)) if word == w)
    }

    /// One or more integer literals (greedy).
    fn int_list(&mut self, what: &str) -> Result<Vec<u64>, ScriptError> {
        let mut out = vec![self.int(what)?.0];
        while self.peek_int() {
            out.push(self.int(what)?.0);
        }
        Ok(out)
    }

    fn item(&mut self) -> Result<Spanned<Item>, ScriptError> {
        let (word, span) =
            self.word("a directive (seeds, taper, shards, trace, experiments, campaign)")?;
        let item = match word.as_str() {
            "seeds" => Item::Seeds(self.seeds_spec()?),
            "taper" => Item::Taper(self.number("a taper value")?.0),
            "shards" => Item::Shards(self.int("a shard count")?.0),
            "trace" => Item::Trace(self.string("a quoted trace directory")?.0),
            "experiments" => Item::Experiments(self.experiments_spec()?),
            "campaign" => Item::Campaign(self.campaign()?),
            other => {
                return Err(ScriptError::parse(
                    span,
                    format!(
                        "unknown directive `{other}` (expected seeds, taper, shards, trace, experiments, or campaign)"
                    ),
                ))
            }
        };
        Ok(Spanned::new(item, span))
    }

    fn seeds_spec(&mut self) -> Result<SeedsSpec, ScriptError> {
        if self.peek_word("quick") {
            self.pos += 1;
            return Ok(SeedsSpec::Quick);
        }
        if self.peek_word("default") {
            self.pos += 1;
            return Ok(SeedsSpec::Default);
        }
        Ok(SeedsSpec::List(self.int_list(
            "a seed protocol (quick, default, or seed numbers)",
        )?))
    }

    fn experiments_spec(&mut self) -> Result<ExperimentsSpec, ScriptError> {
        if self.peek_word("all") {
            self.pos += 1;
            return Ok(ExperimentsSpec::All);
        }
        let mut names = Vec::new();
        let (first, span) = self.word("an experiment name (or `all`)")?;
        names.push(Spanned::new(first, span));
        // experiment names are words that are not directives or settings;
        // stop at the first word that starts something else
        while let Some(Token {
            tok: Tok::Word(w), ..
        }) = self.peek()
        {
            if is_keyword(w) {
                break;
            }
            let (name, span) = self.word("an experiment name")?;
            names.push(Spanned::new(name, span));
        }
        Ok(ExperimentsSpec::Named(names))
    }

    fn campaign(&mut self) -> Result<Campaign, ScriptError> {
        let (name, _) = self.string("a quoted campaign name")?;
        self.expect(Tok::LBrace, "`{` opening the campaign body")?;
        let mut body = Vec::new();
        loop {
            if self.eat(&Tok::RBrace) {
                break;
            }
            if self.at_end() {
                return Err(ScriptError::parse(
                    self.here(),
                    format!("campaign {name:?} is missing its closing `}}`"),
                ));
            }
            body.push(self.setting()?);
        }
        Ok(Campaign { name, body })
    }

    fn setting(&mut self) -> Result<Spanned<Setting>, ScriptError> {
        let (word, span) = self.word("a campaign setting")?;
        let setting = match word.as_str() {
            "cluster" => Setting::Cluster(self.word("a cluster name")?.0),
            "workload" => Setting::Workload(self.word("a workload name")?.0),
            "env" => Setting::Env(self.env_spec()?),
            "nodes" => Setting::Nodes(self.int("a node count")?.0),
            "rpn" => Setting::Rpn(self.int("ranks per node")?.0),
            "threads" => Setting::Threads(self.int("threads per rank")?.0),
            "engine" => Setting::Engine(self.engine_spec()?),
            "deploy" => Setting::Deploy,
            "placement" => Setting::Placement(self.placement_spec()?),
            "spine-taper" => Setting::SpineTaper(self.number("a taper value")?.0),
            "degrade-uplink" => {
                let (node, _) = self.int("a node index")?;
                let (factor, _) = self.number("a capacity factor")?;
                Setting::DegradeUplink(node, factor)
            }
            "seeds" => Setting::Seeds(self.int_list("seed numbers")?),
            "sweep" => Setting::Sweep(self.sweep()?),
            "arrivals" => {
                self.literal_word("poisson", "arrival process")?;
                self.keyed_number("rate", "an arrival rate (jobs per second)")
                    .map(Setting::Arrivals)?
            }
            "mix" => self.mix()?,
            "tenants" => Setting::Tenants(self.int("a tenant count")?.0),
            "horizon" => Setting::Horizon(self.number("a horizon in seconds")?.0),
            other => {
                return Err(ScriptError::parse(
                    span,
                    format!("unknown campaign setting `{other}`"),
                ))
            }
        };
        Ok(Spanned::new(setting, span))
    }

    /// Exactly the word `want`, e.g. the `poisson` in `arrivals poisson`.
    fn literal_word(&mut self, want: &str, what: &str) -> Result<Span, ScriptError> {
        let (word, span) = self.word(&format!("`{want}` ({what})"))?;
        if word == want {
            Ok(span)
        } else {
            Err(ScriptError::parse(
                span,
                format!("unknown {what} `{word}` (expected {want})"),
            ))
        }
    }

    /// A `key=<number>` pair, e.g. `rate=0.05` or `s=1.1`.
    fn keyed_number(&mut self, key: &str, what: &str) -> Result<f64, ScriptError> {
        self.literal_word(key, "parameter name")?;
        self.expect(Tok::Eq, &format!("`=` after `{key}`"))?;
        Ok(self.number(what)?.0)
    }

    /// `mix zipf s=<x> over <knob> [v, v, ...]` (the `mix` word is
    /// already consumed).
    fn mix(&mut self) -> Result<Setting, ScriptError> {
        self.literal_word("zipf", "mix distribution")?;
        let s = self.keyed_number("s", "a zipf exponent")?;
        self.literal_word("over", "keyword")?;
        let (knob, _) = self.word("a mix knob (nodes, workload, env)")?;
        let open = self.expect(Tok::LBracket, "`[` opening the mix values")?;
        let mut values = Vec::new();
        loop {
            if self.eat(&Tok::RBracket) {
                break;
            }
            values.push(self.atoms("a mix value", &[Tok::Comma, Tok::RBracket])?);
            if self.eat(&Tok::RBracket) {
                break;
            }
            self.expect(Tok::Comma, "`,` or `]` between mix values")?;
        }
        if values.is_empty() {
            return Err(ScriptError::parse(open, "a mix needs at least one value"));
        }
        Ok(Setting::Mix { s, knob, values })
    }

    fn env_spec(&mut self) -> Result<Execution, ScriptError> {
        let runtimes = env_words(0);
        let (first, span) = self.word(&format!("a runtime ({})", runtimes.join(", ")))?;
        if !needs_containment(&first) {
            return Execution::by_name(&first).ok_or_else(|| {
                ScriptError::parse(
                    span,
                    format!(
                        "unknown runtime `{first}` (expected {})",
                        or_list(&runtimes)
                    ),
                )
            });
        }
        let containments = env_words(1);
        let (second, _) = self
            .word(&format!("a containment ({})", containments.join(", ")))
            .map_err(|e| ScriptError::parse(span, e.msg))?;
        Execution::by_name(&format!("{first} {second}")).ok_or_else(|| {
            ScriptError::parse(
                span,
                format!(
                    "unknown containment `{second}` (expected {})",
                    or_list(&containments)
                ),
            )
        })
    }

    fn engine_spec(&mut self) -> Result<EngineSpec, ScriptError> {
        let (word, span) = self.word("an engine (analytic, des)")?;
        match word.as_str() {
            "analytic" => Ok(EngineSpec::Analytic),
            "des" => {
                let steps = self.int("max steps per kind")?.0;
                let shards = if self.peek_word("shards") {
                    self.pos += 1;
                    self.int("a shard count")?.0
                } else {
                    0
                };
                Ok(EngineSpec::Des { steps, shards })
            }
            other => Err(ScriptError::parse(
                span,
                format!("unknown engine `{other}` (expected analytic or des)"),
            )),
        }
    }

    fn placement_spec(&mut self) -> Result<PlacementSpec, ScriptError> {
        let (word, span) = self.word("a placement (block, round-robin)")?;
        match word.as_str() {
            "block" => Ok(PlacementSpec::Block),
            "round-robin" => Ok(PlacementSpec::RoundRobin),
            other => Err(ScriptError::parse(
                span,
                format!("unknown placement `{other}` (expected block or round-robin)"),
            )),
        }
    }

    fn sweep(&mut self) -> Result<Sweep, ScriptError> {
        let mut knobs = Vec::new();
        if self.eat(&Tok::LParen) {
            loop {
                let (knob, span) = self.word("a knob name")?;
                knobs.push(Spanned::new(knob, span));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma, "`,` or `)` in the knob tuple")?;
            }
        } else {
            let (knob, span) = self.word("a knob name (or a parenthesized knob tuple)")?;
            knobs.push(Spanned::new(knob, span));
        }
        // values: either an inclusive integer range or a bracketed list
        if self.peek_int() {
            let (lo, span) = self.int("the range start")?;
            self.expect(Tok::DotDot, "`..` in the sweep range")?;
            let (hi, _) = self.int("the range end")?;
            if knobs.len() != 1 {
                return Err(ScriptError::parse(
                    span,
                    "a range sweep takes exactly one knob".to_string(),
                ));
            }
            if lo > hi {
                return Err(ScriptError::parse(
                    span,
                    format!("empty range {lo}..{hi} (start exceeds end)"),
                ));
            }
            return Ok(Sweep {
                knobs,
                values: SweepValues::Range(lo, hi),
            });
        }
        let open = self.expect(Tok::LBracket, "`[` opening the sweep values")?;
        let mut points = Vec::new();
        loop {
            if self.eat(&Tok::RBracket) {
                break;
            }
            points.push(self.sweep_point(knobs.len())?);
            if self.eat(&Tok::RBracket) {
                break;
            }
            self.expect(Tok::Comma, "`,` or `]` between sweep values")?;
        }
        if points.is_empty() {
            return Err(ScriptError::parse(open, "a sweep needs at least one value"));
        }
        Ok(Sweep {
            knobs,
            values: SweepValues::List(points),
        })
    }

    fn sweep_point(&mut self, knob_count: usize) -> Result<Spanned<SweepPoint>, ScriptError> {
        let span = self.here();
        let parts = if self.eat(&Tok::LParen) {
            let mut parts = Vec::new();
            loop {
                parts.push(self.atoms("a value", &[Tok::Comma, Tok::RParen])?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma, "`,` or `)` in the value tuple")?;
            }
            parts
        } else {
            vec![self.atoms("a value", &[Tok::Comma, Tok::RBracket])?]
        };
        if parts.len() != knob_count {
            return Err(ScriptError::parse(
                span,
                format!(
                    "this sweep names {knob_count} knob(s) but the value has {} part(s)",
                    parts.len()
                ),
            ));
        }
        let label = if self.peek_word("as") {
            self.pos += 1;
            Some(self.string("a quoted label after `as`")?.0)
        } else {
            None
        };
        Ok(Spanned::new(SweepPoint { parts, label }, span))
    }

    /// One or more atoms, up to (not consuming) any of `stops` or the
    /// reserved word `as`.
    fn atoms(&mut self, what: &str, stops: &[Tok]) -> Result<Vec<Atom>, ScriptError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(t) if stops.contains(&t.tok) => break,
                Some(Token {
                    tok: Tok::Word(w), ..
                }) if w == "as" => break,
                Some(Token { tok, span }) => {
                    let atom = match tok {
                        Tok::Int(n) => Atom::Int(*n),
                        Tok::Float(x) => Atom::Float(*x),
                        Tok::Word(w) => Atom::Word(w.clone()),
                        other => {
                            return Err(ScriptError::parse(
                                *span,
                                format!("expected {what}, found {other}"),
                            ))
                        }
                    };
                    out.push(atom);
                    self.pos += 1;
                }
                None => {
                    return Err(ScriptError::parse(
                        self.here(),
                        format!("expected {what}, found end of script"),
                    ))
                }
            }
        }
        if out.is_empty() {
            return Err(ScriptError::parse(self.here(), format!("expected {what}")));
        }
        Ok(out)
    }
}

/// Words that start a statement — the boundary tokens for greedy lists
/// like experiment-name sequences.
fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "seeds" | "taper" | "shards" | "trace" | "experiments" | "campaign"
    )
}

/// Whether `runtime` names environments only together with a
/// containment word (as `singularity` does): an `env` value is the words
/// of one [`Execution::NAMED`] name, a runtime word and, for such
/// runtimes, a containment word.
pub(crate) fn needs_containment(runtime: &str) -> bool {
    Execution::by_name(runtime).is_none() && env_words(0).contains(&runtime)
}

/// The distinct words at `position` (0: runtime, 1: containment) of the
/// environment names, in table order.
pub(crate) fn env_words(position: usize) -> Vec<&'static str> {
    let mut words = Vec::new();
    for (name, _) in Execution::NAMED {
        if let Some(word) = name.split(' ').nth(position) {
            if !words.contains(&word) {
                words.push(word);
            }
        }
    }
    words
}

/// `a or b`, `a, b, or c`.
pub(crate) fn or_list(words: &[&str]) -> String {
    match words.split_last() {
        Some((last, rest)) if rest.len() > 1 => format!("{}, or {last}", rest.join(", ")),
        _ => words.join(" or "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ast::synth;
    use crate::script::ScriptStage;

    #[test]
    fn a_full_script_parses() {
        let script = parse(
            r#"
            # the whole front end in one script
            seeds quick
            taper 0.5
            trace "target/traces"
            experiments fig1 ext-locality
            campaign "demo" {
              cluster cte-power
              workload cfd-cte
              env singularity system-specific
              nodes 16
              rpn 40
              threads 1
              engine des 5
              deploy
              placement round-robin
              spine-taper 0.8
              degrade-uplink 3 0.25
              seeds 1 2 3
              sweep nodes 2..4
              sweep (rpn, threads) [(20, 2) as "20x2", (40, 1)]
              sweep env [bare-metal as "Bare-metal", singularity self-contained]
            }
            "#,
        )
        .expect("parses");
        assert_eq!(script.items.len(), 5);
        let campaign = script.campaigns().next().unwrap();
        assert_eq!(campaign.name, "demo");
        assert_eq!(campaign.body.len(), 15);
        let sweeps: Vec<&Sweep> = campaign
            .body
            .iter()
            .filter_map(|s| match &s.value {
                Setting::Sweep(sw) => Some(sw),
                _ => None,
            })
            .collect();
        assert_eq!(sweeps.len(), 3);
        assert_eq!(sweeps[0].values, SweepValues::Range(2, 4));
        assert_eq!(sweeps[1].knobs.len(), 2);
        match &sweeps[2].values {
            SweepValues::List(points) => {
                assert_eq!(points[0].value.label.as_deref(), Some("Bare-metal"));
                assert_eq!(points[1].value.label, None);
                assert_eq!(
                    points[1].value.parts,
                    vec![vec![
                        Atom::Word("singularity".into()),
                        Atom::Word("self-contained".into())
                    ]]
                );
            }
            other => panic!("expected a list, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_through_the_pretty_printer() {
        let src = r#"
            seeds 7 8
            campaign "rt" {
              cluster lenox
              workload cfd-small
              spine-taper 0.5
              sweep env [docker as "Docker", bare-metal]
              sweep nodes 1..4
              sweep degrade-uplink [0 1.0, 0 0.5]
            }
        "#;
        let first = parse(src).expect("parses");
        let printed = first.to_string();
        let second = parse(&printed).expect("canonical text re-parses");
        assert_eq!(first, second, "round trip must be identity:\n{printed}");
    }

    #[test]
    fn open_campaign_directives_parse_and_round_trip() {
        let src = r#"
            campaign "open" {
              cluster lenox
              workload cfd-small
              arrivals poisson rate=0.05
              horizon 1200.0
              tenants 6
              mix zipf s=1.3 over nodes [1, 2, 4]
              mix zipf s=1.1 over env [docker, shifter, singularity self-contained]
            }
        "#;
        let first = parse(src).expect("parses");
        let campaign = first.campaigns().next().unwrap();
        assert_eq!(campaign.body.len(), 7);
        assert_eq!(campaign.body[2].value, Setting::Arrivals(0.05));
        assert_eq!(campaign.body[3].value, Setting::Horizon(1200.0));
        assert_eq!(campaign.body[4].value, Setting::Tenants(6));
        match &campaign.body[6].value {
            Setting::Mix { s, knob, values } => {
                assert_eq!(*s, 1.1);
                assert_eq!(knob, "env");
                assert_eq!(values.len(), 3);
                assert_eq!(
                    values[2],
                    vec![
                        Atom::Word("singularity".into()),
                        Atom::Word("self-contained".into())
                    ]
                );
            }
            other => panic!("expected a mix, got {other:?}"),
        }
        let printed = first.to_string();
        let second = parse(&printed).expect("canonical text re-parses");
        assert_eq!(first, second, "round trip must be identity:\n{printed}");
    }

    #[test]
    fn malformed_open_directives_are_rejected() {
        let e = parse("campaign \"x\" { arrivals uniform rate=0.1 }").unwrap_err();
        assert!(e.msg.contains("expected poisson"), "{e}");
        let e = parse("campaign \"x\" { arrivals poisson rate 0.1 }").unwrap_err();
        assert!(e.msg.contains("`=`"), "{e}");
        let e = parse("campaign \"x\" { mix zipf s=1.1 over nodes [] }").unwrap_err();
        assert!(e.msg.contains("at least one value"), "{e}");
        let e = parse("campaign \"x\" { mix normal s=1.1 over nodes [1] }").unwrap_err();
        assert!(e.msg.contains("expected zipf"), "{e}");
    }

    #[test]
    fn errors_carry_the_offending_span() {
        let e = parse("campaign \"x\" {\n  cluster lenox\n  wibble 3\n}").unwrap_err();
        assert_eq!(e.stage, ScriptStage::Parse);
        assert_eq!(e.span, Span { line: 3, col: 3 });
        assert!(e.msg.contains("wibble"), "{e}");
    }

    #[test]
    fn missing_close_brace_is_diagnosed() {
        let e = parse("campaign \"x\" { cluster lenox").unwrap_err();
        assert!(e.msg.contains("closing"), "{e}");
    }

    #[test]
    fn tuple_arity_is_checked() {
        let e = parse("campaign \"x\" { sweep (rpn, threads) [(2, 14), (4)] }").unwrap_err();
        assert!(e.msg.contains("2 knob(s)"), "{e}");
        let e = parse("campaign \"x\" { sweep nodes [] }").unwrap_err();
        assert!(e.msg.contains("at least one value"), "{e}");
    }

    #[test]
    fn bad_range_is_rejected() {
        let e = parse("campaign \"x\" { sweep nodes 4..2 }").unwrap_err();
        assert!(e.msg.contains("empty range"), "{e}");
        let e = parse("campaign \"x\" { sweep (a, b) 2..4 }").unwrap_err();
        assert!(e.msg.contains("exactly one knob"), "{e}");
    }

    #[test]
    fn taper_accepts_a_bare_integer() {
        let script = parse("taper 1").expect("parses");
        assert_eq!(script.items[0], synth(Item::Taper(1.0)));
    }
}
