//! Reference model for the compatibility property in
//! `wire_properties.rs`: the hand-written decoder of the v1/v2 compact
//! prefetcher forms that the wire codec used before those forms became a
//! data table over registry specs. The function body is kept unchanged.

use ipsim_core::PrefetcherKind;
use ipsim_prefetch::find_scheme;

/// Parses the compact prefetcher form (`none`, `nl_tagged`, `disc:T:A`,
/// `wrong_path+nl`, …). Each numeric argument must lie in the range of
/// the registry knob it sets (`disc:T:A` ↔ `disc:table_entries=T,ahead=A`,
/// …), so every accepted form builds.
pub fn prefetcher_from_wire(text: &str) -> Result<PrefetcherKind, String> {
    let mut parts = text.split(':');
    let head = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    let arity = |n: usize| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!(
                "prefetcher `{head}` takes {n} `:`-argument(s), got {}",
                args.len()
            ))
        }
    };
    let num = |i: usize, scheme: &str, knob: &str| -> Result<u64, String> {
        let value = args[i]
            .parse::<u64>()
            .ok()
            .filter(|v| *v >= 1)
            .ok_or_else(|| format!("prefetcher `{head}`: {knob} must be a positive integer"))?;
        find_scheme(scheme)
            .and_then(|def| def.knob(knob))
            .expect("compact forms map onto registered knobs")
            .check(value)
            .map_err(|expected| {
                format!("prefetcher `{head}`: {knob} must be {expected}, got {value}")
            })?;
        Ok(value)
    };
    match head {
        "none" => {
            arity(0)?;
            Ok(PrefetcherKind::None)
        }
        "nl_always" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineAlways)
        }
        "nl_miss" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineOnMiss)
        }
        "nl_tagged" => {
            arity(0)?;
            Ok(PrefetcherKind::NextLineTagged)
        }
        "nnl" => {
            arity(1)?;
            Ok(PrefetcherKind::NextNLineTagged {
                n: num(0, "nnl", "n")? as u32,
            })
        }
        "lookahead" => {
            arity(1)?;
            Ok(PrefetcherKind::Lookahead {
                n: num(0, "lookahead", "n")? as u32,
            })
        }
        "disc" => {
            arity(2)?;
            Ok(PrefetcherKind::Discontinuity {
                table_entries: num(0, "disc", "table_entries")? as usize,
                ahead: num(1, "disc", "ahead")? as u32,
            })
        }
        "disc_gated" => {
            arity(3)?;
            Ok(PrefetcherKind::DiscontinuityGated {
                table_entries: num(0, "disc", "table_entries")? as usize,
                ahead: num(1, "disc", "ahead")? as u32,
                min_confidence: num(2, "disc", "min_confidence")? as u8,
            })
        }
        "target" => {
            arity(1)?;
            Ok(PrefetcherKind::Target {
                table_entries: num(0, "target", "table_entries")? as usize,
            })
        }
        "wrong_path" => {
            arity(0)?;
            Ok(PrefetcherKind::WrongPath { next_line: false })
        }
        "wrong_path+nl" => {
            arity(0)?;
            Ok(PrefetcherKind::WrongPath { next_line: true })
        }
        "markov" => {
            arity(2)?;
            Ok(PrefetcherKind::Markov {
                table_entries: num(0, "markov", "table_entries")? as usize,
                ahead: num(1, "markov", "ahead")? as u32,
            })
        }
        _ => Err(format!("unknown prefetcher `{text}`")),
    }
}
