//! `figures [--quick] [name…]`: prints the named figures of the paper, or
//! all of them in paper order, each measured series next to the paper's
//! values. `--quick` trims the largest inputs so that the whole set runs in
//! seconds; any other argument prints the usage and runs nothing.

use std::cell::OnceCell;
use std::process::ExitCode;

use fractalcloud_bench::{
    discussion, fig1, fig13, fig14, fig15, fig16, fig17, fig18, fig3, fig4, fig5, table1, table2,
    SceneQuality, Table,
};

/// Input sizes, in points, of the figures `--quick` trims.
#[derive(Debug, PartialEq)]
struct Sizes {
    /// Figs. 1, 4 and 13's large-scale columns (the S3DIS-Test scales).
    large: &'static [usize],
    /// Fig. 17's scene.
    fig17: usize,
    /// Fig. 18's scene.
    fig18: usize,
    /// §VI-D's asymptotic scene (the paper's is 1M points).
    asymptotic: usize,
}

const FULL: Sizes = Sizes {
    large: &[8192, 33_000, 131_000, 289_000],
    fig17: 33_000,
    fig18: 289_000,
    asymptotic: 1_000_000,
};

const QUICK: Sizes =
    Sizes { large: &[8192, 33_000], fig17: 16_384, fig18: 33_000, asymptotic: 131_000 };

/// Figs. 3 and 14 read one evaluation of this scene, made on first use.
fn scene(cell: &OnceCell<SceneQuality>) -> &SceneQuality {
    cell.get_or_init(|| SceneQuality::evaluate(16_384))
}

type Figure = fn(&Sizes, &OnceCell<SceneQuality>) -> Table;

/// Every figure by name, in paper order.
const FIGURES: [(&str, Figure); 13] = [
    ("fig1", |s, _| fig1(s.large)),
    ("fig3", |_, q| fig3(scene(q))),
    ("fig4", |s, _| fig4(s.large)),
    ("fig5", |_, _| fig5()),
    ("table1", |_, _| table1()),
    ("table2", |_, _| table2()),
    ("fig13", |s, _| fig13(s.large)),
    ("fig14", |_, q| fig14(scene(q))),
    ("fig15", |_, _| fig15()),
    ("fig16", |_, _| fig16()),
    ("fig17", |s, _| fig17(s.fig17, 8192)),
    ("fig18", |s, _| fig18(s.fig18)),
    ("discussion", |s, _| discussion(s.asymptotic)),
];

/// Reads `[--quick] [name…]` into the run's sizes and the names of the
/// figures it prints; no name selects every figure.
fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(&'static Sizes, Vec<&'static str>), String> {
    let mut sizes = &FULL;
    let mut named = Vec::new();
    for arg in args {
        if arg == "--quick" {
            sizes = &QUICK;
        } else if let Some((name, _)) = FIGURES.iter().find(|(name, _)| *name == arg) {
            named.push(*name);
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    let all = FIGURES.iter().map(|(name, _)| *name);
    Ok((sizes, all.filter(|name| named.is_empty() || named.contains(name)).collect()))
}

fn main() -> ExitCode {
    let (sizes, names) = match parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!("figures: {e}\nusage: figures [--quick] [name…]; names: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let scene = OnceCell::new();
    for (_, figure) in FIGURES.iter().filter(|(name, _)| names.contains(name)) {
        println!("{}", figure(sizes, &scene));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<(&'static Sizes, Vec<&'static str>), String> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_typo_or_an_unknown_figure_is_refused() {
        assert!(parse_args(&["--quik"]).is_err());
        assert!(parse_args(&["--quick", "fig2"]).is_err());
        assert!(parse_args(&["fig3", "fig03_partition_compare"]).is_err());
    }

    #[test]
    fn no_name_selects_every_figure_at_full_size() {
        let (sizes, names) = parse_args(&[]).unwrap();
        assert_eq!(sizes, &FULL);
        assert_eq!(names, FIGURES.map(|(name, _)| name));
    }

    #[test]
    fn quick_selects_the_quick_sizes_and_names_select_in_paper_order() {
        let (sizes, names) = parse_args(&["fig14", "--quick", "fig3"]).unwrap();
        assert_eq!(sizes, &QUICK);
        assert_eq!(names, ["fig3", "fig14"]);
    }
}
