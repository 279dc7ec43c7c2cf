//! Property tests on the control grammar: any line a client can send —
//! known verbs with wrong arity or junk arguments, unknown verbs, numbers
//! out of range — parses to a request or a typed error, never a panic, and
//! every error renders as exactly one reply line.

use proptest::prelude::*;

use lmon_daemon::control::SUPPORTED_VERSIONS;
use lmon_daemon::Request;

/// Every verb `Request::parse` knows, in both cases it accepts.
const VERBS: &[&str] = &[
    "HELLO", "PING", "LAUNCH", "ATTACH", "RUNJOB", "UPGRADE", "STATUS", "DETACH", "KILL",
    "METRICS", "SHUTDOWN", "GET", "launch", "attach",
];

fn arb_verb() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..VERBS.len()).prop_map(|i| VERBS[i].to_string()),
        "[A-Za-z_]{1,12}",
        "[!-~]{1,8}",
    ]
}

fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        (0u32..4).prop_map(|n| n.to_string()),
        Just("18446744073709551616".to_string()), // u64::MAX + 1
        "[a-z0-9_/.x+-]{1,16}",
        "[!-~]{1,24}",
    ]
}

prop_compose! {
    fn arb_line()(
        verb in arb_verb(),
        args in proptest::collection::vec(arb_token(), 0..7),
        sep in prop_oneof![Just(" "), Just("\t"), Just("  ")],
    ) -> String {
        std::iter::once(verb).chain(args).collect::<Vec<_>>().join(sep)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_and_errors_render_one_line(line in arb_line()) {
        if let Err(err) = Request::parse(&line) {
            for &version in SUPPORTED_VERSIONS {
                let rendered = err.reply(version).render();
                prop_assert!(rendered.starts_with("ERR "), "not an ERR line: {rendered:?}");
                prop_assert!(rendered.ends_with('\n'), "unterminated: {rendered:?}");
                prop_assert_eq!(rendered.matches('\n').count(), 1, "{:?}", rendered);
            }
        }
    }
}
