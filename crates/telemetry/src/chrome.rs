//! Chrome `trace_event` JSON export and re-parse.
//!
//! The export emits the "JSON object format" Chrome's `about:tracing`
//! and Perfetto load directly: `{"traceEvents": [...]}` where each
//! non-zero stage of each span becomes one complete ("ph":"X") event.
//! Timestamps and durations are microseconds (the format's unit);
//! `pid` carries the node, `tid` the tenant, and `args.query` the
//! query id, so per-node lanes stack per-tenant timelines.
//!
//! Like the pulse's JSONL exports, the JSON is hand-rolled and the
//! module carries its own parser, so the shape is pinned by code
//! in this repo rather than by whatever a library tolerates.

use crate::span::{QuerySpan, Stage};

/// One parsed `trace_event` entry (the subset the exporter emits).
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name: the stage's [`Stage::name`].
    pub name: String,
    /// Event phase; the exporter only emits complete events (`"X"`).
    pub ph: String,
    /// Start timestamp, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Process id lane — the serving node.
    pub pid: u64,
    /// Thread id lane — the tenant.
    pub tid: u64,
    /// The query id carried in `args.query`.
    pub query: u64,
}

/// Renders spans as Chrome `trace_event` JSON.
///
/// Stages are laid out back-to-back from each span's arrival in
/// schema order — which is chronological order, since the mutually
/// exclusive stages are zero-length — so the timeline in the viewer
/// reproduces the query's actual lifecycle. Zero-length stages are
/// skipped.
pub fn to_chrome_trace<'a>(spans: impl IntoIterator<Item = &'a QuerySpan>) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for span in spans {
        let mut cursor_ns = span.arrival_ns;
        for stage in Stage::ALL {
            let dur_ns = span.stage_ns(stage);
            if dur_ns == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"lifecycle\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"query\": {}}}}}",
                stage.name(),
                cursor_ns as f64 / 1e3,
                dur_ns as f64 / 1e3,
                span.node,
                span.tenant,
                span.query_id
            ));
            cursor_ns += dur_ns;
        }
    }
    out.push_str("]}\n");
    out
}

/// Parses an exported Chrome trace back into events.
///
/// Accepts exactly the shape [`to_chrome_trace`] emits: a top-level
/// object with a `traceEvents` array of flat event objects (one level
/// of nesting for `args`). Strings carry no escapes.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<ChromeEvent>, String> {
    let json = json.trim();
    let start = json
        .find("\"traceEvents\"")
        .ok_or("missing traceEvents key")?;
    let array = json[start..]
        .find('[')
        .map(|i| &json[start + i + 1..])
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in array.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced braces in traceEvents")?;
                if depth == 0 {
                    let obj = &array[obj_start.take().ok_or("object end without start")?..=i];
                    events.push(parse_event(obj)?);
                }
            }
            ']' if depth == 0 => return Ok(events),
            _ => {}
        }
    }
    Err("unterminated traceEvents array".into())
}

/// Parses one event object by keyed lookup (the exporter's flat
/// shape; `args` is the only nested object and only `query` is read).
fn parse_event(obj: &str) -> Result<ChromeEvent, String> {
    Ok(ChromeEvent {
        name: string_field(obj, "name")?,
        ph: string_field(obj, "ph")?,
        ts_us: number_field(obj, "ts")?,
        dur_us: number_field(obj, "dur")?,
        pid: number_field(obj, "pid")? as u64,
        tid: number_field(obj, "tid")? as u64,
        query: number_field(obj, "query")? as u64,
    })
}

fn field_value<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = obj.find(&pat).ok_or_else(|| format!("missing {key:?}"))?;
    let rest = obj[at + pat.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("missing : after {key:?}"))?;
    Ok(rest.trim_start())
}

fn string_field(obj: &str, key: &str) -> Result<String, String> {
    let rest = field_value(obj, key)?;
    let body = rest
        .strip_prefix('"')
        .ok_or_else(|| format!("{key:?} is not a string"))?;
    let end = body
        .find('"')
        .ok_or_else(|| format!("unterminated string for {key:?}"))?;
    Ok(body[..end].to_string())
}

fn number_field(obj: &str, key: &str) -> Result<f64, String> {
    let rest = field_value(obj, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("bad number for {key:?}: {:?}", &rest[..end]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::STAGE_COUNT;
    use proptest::prelude::*;

    fn span(id: u64, wait_ns: u64, service_ns: u64) -> QuerySpan {
        let mut stages = [0u64; STAGE_COUNT];
        stages[Stage::QueueWait.index()] = wait_ns;
        stages[Stage::EngineService.index()] = service_ns;
        QuerySpan {
            query_id: id,
            tenant: 1,
            node: 2,
            arrival_ns: 10_000 * id,
            end_ns: 10_000 * id + wait_ns + service_ns,
            stages,
        }
    }

    #[test]
    fn round_trips_spans_through_json() {
        let spans = [span(1, 1_500, 2_500), span(2, 0, 4_000)];
        let json = to_chrome_trace(spans.iter());
        let events = parse_chrome_trace(&json).expect("parseable export");
        // Span 1 contributes two stage events, span 2 one.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "queue-wait");
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[0].query, 1);
        assert_eq!(events[0].pid, 2);
        assert_eq!(events[0].tid, 1);
        assert!((events[0].ts_us - 10.0).abs() < 1e-9);
        assert!((events[0].dur_us - 1.5).abs() < 1e-9);
        // Stages lay out back-to-back from the arrival.
        assert!((events[1].ts_us - 11.5).abs() < 1e-9);
        assert_eq!(events[2].name, "engine-service");
        assert!((events[2].ts_us - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": [{\"name\": ").is_err());
    }

    /// JSON fragments the exporter emits, plus ones it never does.
    const JSON_TOKENS: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        " ",
        "\"",
        "\"traceEvents\"",
        "\"name\"",
        "\"ph\"",
        "\"X\"",
        "\"ts\"",
        "\"dur\"",
        "\"pid\"",
        "\"tid\"",
        "\"args\"",
        "\"query\"",
        "1.500",
        "-",
        "e",
        "+",
        "18446744073709551616",
        "é",
    ];

    /// A span from `bits`: each stage empty about half the time, so
    /// zero-length stages (which export no event) are exercised.
    fn arbitrary_span(bits: u64) -> QuerySpan {
        let mut stages = [0u64; STAGE_COUNT];
        for (i, ns) in stages.iter_mut().enumerate() {
            if (bits >> i) & 1 == 1 {
                *ns = (bits >> (8 + 3 * i)) % 5_000_000_000;
            }
        }
        let arrival_ns = (bits >> 20) % 1_000_000_000_000;
        QuerySpan {
            query_id: bits >> 33,
            tenant: (bits >> 7 & 3) as usize,
            node: (bits >> 9 & 7) as usize,
            arrival_ns,
            end_ns: arrival_ns + stages.iter().sum::<u64>(),
            stages,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The parser answers `Ok` or `Err` on any text; it never panics.
        #[test]
        fn parse_chrome_trace_never_panics(
            toks in prop::collection::vec(0u32..(JSON_TOKENS.len() as u32 + 32), 0..80),
        ) {
            let text: String = toks
                .iter()
                .map(|&t| match JSON_TOKENS.get(t as usize) {
                    Some(s) => s.to_string(),
                    None => char::from_u32(0x20 + t * 41).unwrap_or('?').to_string(),
                })
                .collect();
            let _ = parse_chrome_trace(&text);
        }

        /// Every non-empty stage of every span comes back as exactly the
        /// event it was exported as, bit for bit.
        #[test]
        fn chrome_trace_round_trips(
            seeds in prop::collection::vec(0u64..u64::MAX, 0..20),
        ) {
            let spans: Vec<QuerySpan> = seeds.iter().map(|&b| arbitrary_span(b)).collect();
            let mut want = Vec::new();
            for span in &spans {
                let mut cursor_ns = span.arrival_ns;
                for stage in Stage::ALL {
                    let dur_ns = span.stage_ns(stage);
                    if dur_ns > 0 {
                        want.push(ChromeEvent {
                            name: stage.name().to_string(),
                            ph: "X".to_string(),
                            ts_us: cursor_ns as f64 / 1e3,
                            dur_us: dur_ns as f64 / 1e3,
                            pid: span.node as u64,
                            tid: span.tenant as u64,
                            query: span.query_id,
                        });
                    }
                    cursor_ns += dur_ns;
                }
            }
            let got = parse_chrome_trace(&to_chrome_trace(&spans)).expect("own export parses");
            prop_assert_eq!(got, want);
        }
    }
}
