//! What `decode_request` makes of hostile input does not drift.
//!
//! The corpus starts from every request the daemon's menu sends
//! (`menu_scenario`, as execute requests) and every request variant of
//! `wire_writer` (hostile scripts and workload names, edge seeds, open
//! menus, degraded links, batches). Each one is mutated, family by
//! family:
//!
//! - **truncate**: cut at every char boundary;
//! - **drop**: remove each field of each object and each array item;
//! - **dup**: repeat each field, once with its own value and once with
//!   `null`, the repeat placed before and after the original;
//! - **retype**: replace each field and item with values of every other
//!   type, other registry names, integers written as `4.0`/`1e1`/`-0`,
//!   and malformed literals, numbers, escapes and control characters;
//! - **faults**: null every field of an object at once, in document and
//!   in reverse order, and put a syntax error before or after a dropped
//!   field;
//! - **layout**: reorder each object's keys, add whitespace between every
//!   token, and write keys and strings with `\u` escapes;
//! - **deep**: add unknown values whose innermost value sits at depth 63,
//!   64 and 65, with scalar and empty-container tips;
//! - **wide**: add a 10,000-key unknown object.
//!
//! Every outcome is pinned through an FNV-1a digest per family: the
//! `encode_request` bytes of the decoded request, or the `WireError`
//! message. The digests were recorded from the tree-building decoder, so
//! a decoder that reads differently (other error positions or messages,
//! field errors in another order, another duplicate-key rule) fails here.
//!
//! Integers that do not fit the 32-bit scenario fields stay out of the
//! corpus, so that it pins only behaviour meant to last: the decoder once
//! truncated them and now rejects them, which the wire module's own tests
//! cover field by field.

use harborsim::hw::presets;
use harborsim::mpi::Placement;
use harborsim::study::json::Json;
use harborsim::study::lab::wire::{decode_request, encode_request};
use harborsim::study::lab::{LabRequest, Query};
use harborsim::study::open::{MixSpec, OpenSpec};
use harborsim::study::scenario::{Execution, Scenario};
use harborsim::study::workloads;
use harborsim_bench::loadgen::{menu_scenario, MENU_LEN};

// ------------------------------------------------------------ base corpus

/// Text that exercises every escape (as in `wire_writer`).
const HOSTILE: [&str; 6] = [
    "",
    "plain",
    "quote \" and back\\slash",
    "ctl \n\r\t\u{1}\u{8}\u{c}\u{1f} end",
    "é𝄞 und é\"𝄞\\",
    "\u{7f}\u{80}\u{2028}\u{fffd}",
];

const EXACT_LIMIT: u64 = 1 << 53;

const EDGE_SEEDS: [u64; 3] = [0, EXACT_LIMIT - 1, EXACT_LIMIT];

fn sc() -> Scenario {
    Scenario::new(presets::lenox(), workloads::artery_cfd_small())
        .execution(Execution::singularity_self_contained())
        .nodes(2)
        .ranks_per_node(14)
}

/// Every request variant of `wire_writer`.
fn requests() -> Vec<LabRequest> {
    let mut out = vec![LabRequest::Stats];
    for (i, text) in HOSTILE.iter().enumerate() {
        let seed = EDGE_SEEDS[i % 3];
        out.push(LabRequest::Campaign {
            script: text.to_string(),
        });
        out.push(LabRequest::plan(sc().open_campaign(OpenSpec {
            rate_per_s: 0.04,
            horizon_s: 900.0,
            tenants: 4,
            node_mix: MixSpec {
                s: 1.2,
                values: vec![1, 2, 4],
            },
            workload_mix: MixSpec {
                s: 0.0,
                values: vec!["cfd-small".into(), text.to_string()],
            },
            env_mix: MixSpec {
                s: 1.1,
                values: vec![Execution::docker(), Execution::shifter()],
            },
        })));
        out.push(LabRequest::execute(
            sc().spine_taper(0.66)
                .placement(Placement::RoundRobin)
                .degrade_node_uplink(1, 0.1)
                .degrade_node_uplink(0, 1e-9),
            seed,
        ));
        out.push(LabRequest::Batch {
            queries: vec![
                Query::new(sc(), &[seed, 1, EXACT_LIMIT]),
                Query::new(sc().nodes(1).with_deployment(), &[]),
            ],
        });
    }
    out.push(LabRequest::Batch {
        queries: Vec::new(),
    });
    out
}

/// The wire text of every base request: the menu's executes first.
fn base_corpus() -> Vec<String> {
    let menu = (0..MENU_LEN).map(|i| LabRequest::execute(menu_scenario(i), i as u64));
    menu.chain(requests())
        .map(|r| encode_request(&r).expect("registry scenarios encode"))
        .collect()
}

// ---------------------------------------------------------- mutable trees

/// A request as a tree the mutations edit: leaves keep their JSON text,
/// so a mutation can put any text, valid or not, in a value's place.
#[derive(Clone)]
enum Node {
    /// A value's JSON text, written as is.
    Leaf(String),
    /// A string value, written escaped by the layout in force.
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

fn node(json: &Json) -> Node {
    match json {
        Json::Str(s) => Node::Str(s.clone()),
        Json::Arr(items) => Node::Arr(items.iter().map(node).collect()),
        Json::Obj(fields) => Node::Obj(fields.iter().map(|(k, v)| (k.clone(), node(v))).collect()),
        leaf => Node::Leaf(leaf.write()),
    }
}

/// How a tree is written.
#[derive(Clone, Copy)]
struct Layout {
    /// Written between every two tokens.
    ws: &'static str,
    /// Keys as `\u` escapes: none, the first char, or all of them.
    escape_keys: Escape,
    /// String values as `\u` escapes.
    escape_strs: Escape,
}

#[derive(Clone, Copy, PartialEq)]
enum Escape {
    None,
    First,
    All,
}

const COMPACT: Layout = Layout {
    ws: "",
    escape_keys: Escape::None,
    escape_strs: Escape::None,
};

fn write_str(out: &mut String, s: &str, escape: Escape) {
    let plain = Json::Str(s.to_string()).write();
    if escape == Escape::None || s.is_empty() {
        out.push_str(&plain);
        return;
    }
    out.push('"');
    for (i, c) in s.chars().enumerate() {
        if escape == Escape::All || i == 0 {
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{u:04x}"));
            }
        } else {
            let one = Json::Str(c.to_string()).write();
            out.push_str(&one[1..one.len() - 1]);
        }
    }
    out.push('"');
}

fn render(n: &Node, layout: Layout, out: &mut String) {
    let ws = layout.ws;
    match n {
        Node::Leaf(text) => out.push_str(text),
        Node::Str(s) => write_str(out, s, layout.escape_strs),
        Node::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(ws);
                if i > 0 {
                    out.push(',');
                    out.push_str(ws);
                }
                render(item, layout, out);
            }
            out.push_str(ws);
            out.push(']');
        }
        Node::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(ws);
                if i > 0 {
                    out.push(',');
                    out.push_str(ws);
                }
                write_str(out, k, layout.escape_keys);
                out.push_str(ws);
                out.push(':');
                out.push_str(ws);
                render(v, layout, out);
            }
            out.push_str(ws);
            out.push('}');
        }
    }
}

fn text(n: &Node, layout: Layout) -> String {
    let mut out = String::new();
    render(n, layout, &mut out);
    out
}

/// The paths of every array and object under `n`, `n` first.
fn containers(n: &Node, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Node> = match n {
        Node::Arr(items) => items.iter().collect(),
        Node::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => return,
    };
    out.push(path.clone());
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        containers(child, path, out);
        path.pop();
    }
}

fn at<'a>(n: &'a mut Node, path: &[usize]) -> &'a mut Node {
    match path.split_first() {
        None => n,
        Some((&i, rest)) => match n {
            Node::Arr(items) => at(&mut items[i], rest),
            Node::Obj(fields) => at(&mut fields[i].1, rest),
            _ => unreachable!("paths lead through containers"),
        },
    }
}

fn len(n: &Node) -> usize {
    match n {
        Node::Arr(items) => items.len(),
        Node::Obj(fields) => fields.len(),
        _ => 0,
    }
}

/// Each base request's tree with the paths of its containers.
fn trees() -> Vec<(Node, Vec<Vec<usize>>)> {
    base_corpus()
        .iter()
        .map(|wire| {
            let tree = node(&Json::parse(wire).expect("requests encode to JSON"));
            let mut paths = Vec::new();
            containers(&tree, &mut Vec::new(), &mut paths);
            (tree, paths)
        })
        .collect()
}

/// Every edit of one container: the tree with `edit` applied to the
/// container at each path.
fn each_container(
    trees: &[(Node, Vec<Vec<usize>>)],
    mut edit: impl FnMut(&Node, &[usize]) -> Vec<Node>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (tree, paths) in trees {
        for path in paths {
            for edited in edit(tree, path) {
                out.push(text(&edited, COMPACT));
            }
        }
    }
    out
}

// -------------------------------------------------------------- mutations

/// Values put in place of each field and item.
const REPLACEMENTS: [&str; 38] = [
    "null",
    "true",
    "false",
    "\"bogus\"",
    "\"\"",
    "0",
    "-0",
    "4.0",
    "1e1",
    "2.5",
    "-1",
    "4294967295",
    "[]",
    "{}",
    "[0,1.5]",
    "[[0,1.5]]",
    "[\"docker\"]",
    "{\"kind\":\"analytic\"}",
    "{\"kind\":\"des\",\"max_steps_per_kind\":3}",
    "{\"s\":1,\"values\":[2]}",
    "\"stats\"",
    "\"plan\"",
    "\"batch\"",
    "\"campaign\"",
    "\"mn4\"",
    "\"docker\"",
    "\"des\"",
    "\"round-robin\"",
    "\"l\\u0065nox\"",
    "1e999",
    "01",
    "1.",
    "-",
    "tru",
    "\"\\u00zz\"",
    "\"a\u{1}b\"",
    "\"\\x\"",
    "\"\\u+06c\"",
];

fn truncations(wires: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for wire in wires {
        for (i, _) in wire.char_indices() {
            out.push(wire[..i].to_string());
        }
    }
    out
}

fn drops(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    each_container(trees, |tree, path| {
        (0..len(at(&mut tree.clone(), path)))
            .map(|i| {
                let mut t = tree.clone();
                match at(&mut t, path) {
                    Node::Arr(items) => {
                        items.remove(i);
                    }
                    Node::Obj(fields) => {
                        fields.remove(i);
                    }
                    _ => unreachable!(),
                }
                t
            })
            .collect()
    })
}

fn duplicates(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    each_container(trees, |tree, path| {
        let Node::Obj(fields) = at(&mut tree.clone(), path).clone() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, (k, v)) in fields.iter().enumerate() {
            for repeat in [v.clone(), Node::Leaf("null".into())] {
                for place in [i, i + 1] {
                    let mut t = tree.clone();
                    let Node::Obj(edited) = at(&mut t, path) else {
                        unreachable!()
                    };
                    edited.insert(place, (k.clone(), repeat.clone()));
                    out.push(t);
                }
            }
        }
        out
    })
}

fn retypes(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    each_container(trees, |tree, path| {
        let n = len(at(&mut tree.clone(), path));
        let mut out = Vec::new();
        for i in 0..n {
            for r in REPLACEMENTS {
                let mut t = tree.clone();
                *at(&mut t, &[path, &[i]].concat()) = Node::Leaf(r.to_string());
                out.push(t);
            }
        }
        out
    })
}

/// Several faults in one document: every field of an object nulled (in
/// document and in reverse order), and a syntax error before or after a
/// dropped field.
fn faults(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    let mut out = each_container(trees, |tree, path| {
        let mut nulled = tree.clone();
        let Node::Obj(fields) = at(&mut nulled, path) else {
            return Vec::new();
        };
        for (_, v) in fields.iter_mut() {
            *v = Node::Leaf("null".into());
        }
        let mut reversed = nulled.clone();
        if let Node::Obj(fields) = at(&mut reversed, path) {
            fields.reverse();
        }
        vec![nulled, reversed]
    });
    for dropped in drops(trees) {
        out.push(format!("{dropped} x"));
        out.push(dropped.replacen('{', "{\"zz\":tru,", 1));
        out.push(dropped.replacen(':', ":\"\\q\",\"k\":", 1));
    }
    out
}

fn layouts(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    let mut out = each_container(trees, |tree, path| {
        let mut reversed = tree.clone();
        let mut rotated = tree.clone();
        match (at(&mut reversed, path), at(&mut rotated, path)) {
            (Node::Obj(r), Node::Obj(o)) if !o.is_empty() => {
                r.reverse();
                o.rotate_left(1);
                vec![reversed, rotated]
            }
            _ => Vec::new(),
        }
    });
    for (tree, paths) in trees {
        // children before their parents, so each path still holds
        let mut all_reversed = tree.clone();
        for path in paths.iter().rev() {
            if let Node::Obj(fields) = at(&mut all_reversed, path) {
                fields.reverse();
            }
        }
        out.push(text(&all_reversed, COMPACT));
        for ws in [" ", "\n", "\t\r\n ", "\r\n"] {
            out.push(text(tree, Layout { ws, ..COMPACT }));
        }
        for (escape_keys, escape_strs) in [
            (Escape::All, Escape::None),
            (Escape::First, Escape::None),
            (Escape::None, Escape::All),
            (Escape::First, Escape::First),
        ] {
            out.push(text(
                tree,
                Layout {
                    ws: "",
                    escape_keys,
                    escape_strs,
                },
            ));
        }
    }
    out
}

/// `tip` wrapped in `n` arrays (or objects with key `d`).
fn nest(n: usize, tip: &str, objects: bool) -> String {
    if objects {
        "{\"d\":".repeat(n) + tip + &"}".repeat(n)
    } else {
        "[".repeat(n) + tip + &"]".repeat(n)
    }
}

/// Adds `field` to the object at each path, first and last.
fn with_field(
    trees: &[(Node, Vec<Vec<usize>>)],
    mut value: impl FnMut(usize) -> Vec<String>,
) -> Vec<String> {
    each_container(trees, |tree, path| {
        if !matches!(at(&mut tree.clone(), path), Node::Obj(_)) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for v in value(path.len()) {
            for first in [true, false] {
                let mut t = tree.clone();
                let Node::Obj(fields) = at(&mut t, path) else {
                    unreachable!()
                };
                let place = if first { 0 } else { fields.len() };
                fields.insert(place, ("unknown".into(), Node::Leaf(v.clone())));
                out.push(t);
            }
        }
        out
    })
}

/// Unknown values whose innermost value sits at depth 63, 64 and 65 (the
/// cap is 64), for a field of an object at `base` depth.
fn deep(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    with_field(trees, |base| {
        let field = base + 1;
        let mut values = Vec::new();
        for depth in [63, 64, 65] {
            for objects in [false, true] {
                // a scalar tip at `depth` under `depth - field` containers
                values.push(nest(depth - field, "0", objects));
                // an empty container at `depth`
                values.push(nest(
                    depth - field,
                    if objects { "{}" } else { "[]" },
                    objects,
                ));
            }
        }
        values
    })
}

fn wide(trees: &[(Node, Vec<Vec<usize>>)]) -> Vec<String> {
    let keys: Vec<String> = (0..10_000).map(|i| format!("\"k{i}\":{i}")).collect();
    let object = format!("{{{}}}", keys.join(","));
    // the root and the first nested object only: each copy is 100 kB
    let roots: Vec<(Node, Vec<Vec<usize>>)> = trees
        .iter()
        .map(|(tree, paths)| {
            let firsts = paths
                .iter()
                .filter(|p| p.len() <= 1)
                .take(2)
                .cloned()
                .collect();
            (tree.clone(), firsts)
        })
        .collect();
    with_field(&roots, |_| vec![object.clone()])
}

// ----------------------------------------------------------------- digest

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one family pins: how many documents, how many decoded, and the
/// digest of every outcome in order.
#[derive(Debug, PartialEq)]
struct Pinned {
    docs: usize,
    decoded: usize,
    digest: u64,
}

/// One document's outcome: the re-encoded request, or the error message.
fn outcome(doc: &str) -> String {
    match decode_request(doc) {
        Ok(req) => match encode_request(&req) {
            Ok(wire) => format!("ok {wire}"),
            Err(e) => format!("unencodable {}", e.msg),
        },
        Err(e) => format!("err {}", e.msg),
    }
}

fn pin(docs: &[String]) -> Pinned {
    let mut digest = FNV_OFFSET;
    let mut decoded = 0;
    for doc in docs {
        let line = outcome(doc);
        decoded += usize::from(line.starts_with("ok "));
        digest = fnv(fnv(digest, line.as_bytes()), b"\n");
    }
    Pinned {
        docs: docs.len(),
        decoded,
        digest,
    }
}

fn pinned(docs: usize, decoded: usize, digest: u64) -> Pinned {
    Pinned {
        docs,
        decoded,
        digest,
    }
}

// ------------------------------------------------------------------ tests

#[test]
fn base_requests_decode_to_themselves() {
    let wires = base_corpus();
    assert_eq!(wires.len(), MENU_LEN + 26);
    for wire in &wires {
        assert_eq!(outcome(wire), format!("ok {wire}"));
    }
}

#[test]
fn truncations_are_pinned() {
    assert_eq!(
        pin(&truncations(&base_corpus())),
        pinned(11_219, 0, 0xd93f_14db_a0f3_4291)
    );
}

#[test]
fn dropped_fields_are_pinned() {
    assert_eq!(
        pin(&drops(&trees())),
        pinned(839, 84, 0xaa53_da81_c9bd_4602)
    );
}

#[test]
fn duplicate_fields_are_pinned() {
    assert_eq!(
        pin(&duplicates(&trees())),
        pinned(2_924, 2_265, 0x2304_0385_95b3_0f4c)
    );
}

#[test]
fn retyped_values_are_pinned() {
    assert_eq!(
        pin(&retypes(&trees())),
        pinned(31_882, 3_092, 0xe723_0505_1aae_8043)
    );
}

#[test]
fn several_faults_are_pinned() {
    assert_eq!(
        pin(&faults(&trees())),
        pinned(2_809, 0, 0xddaa_3850_9920_c2d0)
    );
}

#[test]
fn layouts_are_pinned() {
    assert_eq!(
        pin(&layouts(&trees())),
        pinned(634, 634, 0x8125_b79f_a26e_e948)
    );
}

#[test]
fn deep_unknown_values_are_pinned() {
    assert_eq!(
        pin(&deep(&trees())),
        pinned(3_504, 2_336, 0x8da7_567f_916e_a2c5)
    );
}

#[test]
fn wide_unknown_objects_are_pinned() {
    assert_eq!(
        pin(&wide(&trees())),
        pinned(124, 124, 0xfe56_5627_c2be_9a03)
    );
}
