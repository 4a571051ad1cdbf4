//! The claims rule behind `bench_diff`.
//!
//! Every scenario bin publishes its boolean headline claims (swap-aware
//! beats FCFS, cost-model routing beats round-robin, scrubbing beats no
//! scrubbing, …) under an object named `claims`. A summary fails the
//! rule when any leaf of a `claims` object is not `true`, or when a
//! claim the baseline summary carries is missing from the current one:
//! retiring a claim must be an explicit baseline edit, never a silent
//! skip. Numeric metrics stay outside `claims`; host status flags that
//! may legitimately be `false` (`speedup_gate_enforced`) do too.

use vp2_sim::Json;

/// Every leaf of every `claims` object in `json`, as `(json.path, leaf)`.
fn collect(json: &Json) -> Vec<(String, &Json)> {
    let mut out = Vec::new();
    walk(json, "", false, &mut out);
    out
}

fn walk<'a>(json: &'a Json, path: &str, in_claims: bool, out: &mut Vec<(String, &'a Json)>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(value, &child, in_claims || key == "claims", out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, &format!("{path}[{i}]"), in_claims, out);
            }
        }
        leaf if in_claims => out.push((path.to_string(), leaf)),
        _ => {}
    }
}

/// Problems the claims rule finds in `current`, one line each: a claim
/// that is not `true`, and — given the baseline summary — a baseline
/// claim the current summary no longer carries.
pub fn check(current: &Json, baseline: Option<&Json>) -> Vec<String> {
    let claims = collect(current);
    let mut problems: Vec<String> = claims
        .iter()
        .filter(|(_, leaf)| !matches!(leaf, Json::Bool(true)))
        .map(|(path, leaf)| format!("{path}: claim is {}", leaf.render()))
        .collect();
    for (path, _) in baseline.map(collect).unwrap_or_default() {
        if !claims.iter().any(|(p, _)| *p == path) {
            problems.push(format!(
                "{path}: baseline claims it but the current summary dropped it"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(claims: Json) -> Json {
        Json::obj().field(
            "scenario",
            Json::obj()
                .field("makespan_us", 10.0)
                .field("identical", false)
                .field("claims", claims),
        )
    }

    #[test]
    fn a_passing_set_has_no_problems() {
        let base = summary(Json::obj().field("a", true).field("b", true));
        let cur = summary(
            Json::obj()
                .field("a", true)
                .field("b", true)
                .field("new", true),
        );
        assert!(check(&cur, Some(&base)).is_empty());
        assert!(check(&cur, None).is_empty());
        // Booleans outside a `claims` object are not claims.
        assert_eq!(collect(&cur).len(), 3);
    }

    #[test]
    fn a_false_claim_fails() {
        let cur = summary(Json::obj().field("a", true).field("b", false));
        assert_eq!(check(&cur, None), ["scenario.claims.b: claim is false"]);
        assert_eq!(check(&cur, Some(&cur)).len(), 1);
        // A non-boolean claim cannot pass either.
        let cur = summary(Json::obj().field("a", 1.0));
        assert_eq!(check(&cur, None), ["scenario.claims.a: claim is 1"]);
    }

    #[test]
    fn a_dropped_claim_fails() {
        let base = summary(Json::obj().field("a", true).field("b", true));
        let cur = summary(Json::obj().field("a", true));
        assert_eq!(
            check(&cur, Some(&base)),
            ["scenario.claims.b: baseline claims it but the current summary dropped it"]
        );
        // Dropping the whole object drops every claim in it.
        let bare = Json::obj().field("scenario", Json::obj());
        assert_eq!(check(&bare, Some(&base)).len(), 2);
    }
}
