//! EXPERIMENTS.md quotes `results/` exactly.
//!
//! A block of EXPERIMENTS.md that cites a results file as
//! `results/<name>.txt` quotes that file: every number in the block
//! must appear in one of the files it cites, in the file's printed
//! form. A block is a paragraph together with the table it
//! introduces, or one list item. Numbers inside code spans, and digits
//! glued to a word on their left (`CONV2`, `D1`, `16x8`'s `8`), are not
//! quotes. A quote that drifts from `results/` fails here until the
//! prose moves with the model, so derived figures (ratios the prose
//! computes itself) belong in blocks that cite no file.

use std::collections::HashSet;
use std::path::Path;

/// The results files whose figures EXPERIMENTS.md must quote by
/// citation: Figs. 4 and 9–12, the headline, the ablations and the
/// storage formats.
const MUST_CITE: [&str; 6] = [
    "fig04_firing_rates.txt",
    "fig09_energy_breakdown.txt",
    "fig10_fig11_tw_sweep.txt",
    "fig12_discussion.txt",
    "ablation_stsap_limit.txt",
    "repr_formats.txt",
];

/// The number tokens of `text`: digit runs with `.`-joined fractions
/// and an optional `e[+-]` exponent. With `quotes_only`, tokens glued
/// to a letter or `_` on their left are skipped.
fn numbers(text: &str, quotes_only: bool) -> Vec<String> {
    let b = text.as_bytes();
    let digit_at = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while digit_at(i) || (b.get(i) == Some(&b'.') && digit_at(i + 1)) {
            i += 1;
        }
        if b.get(i) == Some(&b'e') {
            let sign = usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
            if digit_at(i + 1 + sign) {
                i += 1 + sign;
                while digit_at(i) {
                    i += 1;
                }
            }
        }
        let glued = start > 0 && (b[start - 1].is_ascii_alphabetic() || b[start - 1] == b'_');
        if !(quotes_only && glued) {
            out.push(text[start..i].to_string());
        }
    }
    out
}

/// `line` without its code spans.
fn strip_code(line: &str) -> String {
    line.split('`').step_by(2).collect::<Vec<_>>().join(" ")
}

/// The `results/<name>.txt` files `text` cites.
fn citations(text: &str) -> Vec<String> {
    text.match_indices("results/")
        .filter_map(|(at, _)| {
            let rest = &text[at + "results/".len()..];
            let end = rest.find(".txt")?;
            let name = &rest[..end];
            let plain =
                !name.is_empty() && name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_');
            plain.then(|| format!("{name}.txt"))
        })
        .collect()
}

/// EXPERIMENTS.md split into blocks, fenced code dropped.
fn blocks(doc: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut fenced = false;
    let mut after_blank = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let t = line.trim_start();
        if t.is_empty() {
            after_blank = true;
            continue;
        }
        let list_item = t.starts_with("* ") || t.starts_with("- ") || t.starts_with('#');
        // A table stays with the paragraph that introduces it.
        let table_after_blank = after_blank && t.starts_with('|') && !current.contains('|');
        if (after_blank && !table_after_blank) || list_item {
            blocks.push(std::mem::take(&mut current));
        }
        after_blank = false;
        current.push_str(line);
        current.push('\n');
    }
    blocks.push(current);
    blocks.retain(|b| !b.is_empty());
    blocks
}

#[test]
fn experiments_quote_results_verbatim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut cited_files = HashSet::new();
    let mut checked = 0;
    let mut drifted = Vec::new();
    for block in blocks(&doc) {
        let files = citations(&block);
        if files.is_empty() {
            continue;
        }
        let mut printed = HashSet::new();
        for file in &files {
            let text = std::fs::read_to_string(root.join("results").join(file))
                .unwrap_or_else(|e| panic!("EXPERIMENTS.md cites results/{file}: {e}"));
            printed.extend(numbers(&text, false));
            cited_files.insert(file.clone());
        }
        let prose: String = block.lines().map(strip_code).collect::<Vec<_>>().join("\n");
        for n in numbers(&prose, true) {
            checked += 1;
            if !printed.contains(&n) {
                drifted.push(format!("{n} (cites {files:?}) in:\n{block}"));
            }
        }
    }
    for file in MUST_CITE {
        assert!(
            cited_files.contains(file),
            "EXPERIMENTS.md no longer quotes results/{file} by citation"
        );
    }
    assert!(checked > 0, "no cited figure was checked");
    assert!(
        drifted.is_empty(),
        "EXPERIMENTS.md quotes numbers its cited results files do not print:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn numbers_split_like_the_results_files_print() {
    assert_eq!(
        numbers("9.10x / 6.49x at TW=1..64, EDP 2.143e-4 J", true),
        ["9.10", "6.49", "1", "64", "2.143e-4"]
    );
    assert_eq!(numbers("CONV2 16x8 D1 fig09", true), ["16"]);
    assert_eq!(numbers("CONV2 16x8", false), ["2", "16", "8"]);
    assert_eq!(
        citations(
            "(`results/fig11.svg`, `results/fig09_energy_breakdown.txt`, results/<name>.txt)"
        ),
        ["fig09_energy_breakdown.txt"]
    );
    assert_eq!(strip_code("a `results/x.txt` b"), "a   b");
}
