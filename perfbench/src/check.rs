//! Checks of `esvm serve` replies against the lines that were sent.

use std::fmt;

/// One protocol line the generator sends, reduced to what its reply
/// must echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    /// `REQ <id> …`: answered `PLACED <id> <server>` or `REJECTED <id>`.
    Req(u32),
    /// `DOWN <server>`: answered `DOWNED <server> evicted=… repaired=… shed=…`.
    Down(u32),
    /// `UP <server>`: answered `UPPED <server>`.
    Up(u32),
}

impl fmt::Display for Sent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sent::Req(id) => write!(f, "REQ {id}"),
            Sent::Down(s) => write!(f, "DOWN {s}"),
            Sent::Up(s) => write!(f, "UP {s}"),
        }
    }
}

/// The outcome of checking one session's replies.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Lines whose reply is missing, malformed, an `ERR`, out of order
    /// or names a server outside the fleet; plus replies nobody asked for.
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
    /// `(id, server)` of every `PLACED` reply, in reply order.
    pub placed: Vec<(u32, u32)>,
}

impl Verdict {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }
}

/// Checks that `replies` holds exactly one reply per line of `sent`, in
/// order, each echoing its line's id or server and naming only servers
/// below `fleet`.
pub fn check_replies(sent: &[Sent], replies: &[String], fleet: usize) -> Verdict {
    let mut verdict = Verdict::default();
    for (i, line) in sent.iter().enumerate() {
        match replies.get(i) {
            None => verdict.fail(format!("line {i} ({line}): no reply")),
            Some(reply) => match check_one(*line, reply, fleet) {
                Ok(Some(placed)) => verdict.placed.push(placed),
                Ok(None) => {}
                Err(why) => verdict.fail(format!("line {i} ({line}): {why}: {reply:?}")),
            },
        }
    }
    for (i, reply) in replies.iter().enumerate().skip(sent.len()) {
        verdict.fail(format!("reply {i} answers no line: {reply:?}"));
    }
    verdict
}

/// Checks one reply; `Ok(Some((id, server)))` for a placement.
fn check_one(sent: Sent, reply: &str, fleet: usize) -> Result<Option<(u32, u32)>, String> {
    let tokens: Vec<&str> = reply.split_whitespace().collect();
    let number = |i: usize| -> Result<u32, String> {
        tokens
            .get(i)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| "malformed reply".to_owned())
    };
    let echo = |want: u32, got: u32| {
        if want == got {
            Ok(())
        } else {
            Err(format!("echoes {got} instead of {want}"))
        }
    };
    match (sent, tokens.first().copied()) {
        (_, Some("ERR")) => Err("error reply".to_owned()),
        (Sent::Req(id), Some("PLACED")) if tokens.len() == 3 => {
            echo(id, number(1)?)?;
            let server = number(2)?;
            if server as usize >= fleet {
                return Err(format!("server {server} is outside the fleet of {fleet}"));
            }
            Ok(Some((id, server)))
        }
        (Sent::Req(id), Some("REJECTED")) if tokens.len() == 2 => {
            echo(id, number(1)?).map(|()| None)
        }
        (Sent::Down(server), Some("DOWNED")) if tokens.len() == 5 => {
            echo(server, number(1)?).map(|()| None)
        }
        (Sent::Up(server), Some("UPPED")) if tokens.len() == 2 => {
            echo(server, number(1)?).map(|()| None)
        }
        _ => Err("unexpected reply".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replies(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| (*l).to_owned()).collect()
    }

    const SENT: [Sent; 4] = [Sent::Req(0), Sent::Req(1), Sent::Down(3), Sent::Up(3)];

    #[test]
    fn well_formed_replies_pass_and_yield_placements() {
        let got = replies(&[
            "PLACED 0 2",
            "REJECTED 1",
            "DOWNED 3 evicted=1 repaired=1 shed=0",
            "UPPED 3",
        ]);
        let v = check_replies(&SENT, &got, 4);
        assert_eq!(v.failed, 0, "{:?}", v.problems);
        assert_eq!(v.placed, vec![(0, 2)]);
    }

    #[test]
    fn missing_replies_fail() {
        let got = replies(&["PLACED 0 2", "REJECTED 1"]);
        assert_eq!(check_replies(&SENT, &got, 4).failed, 2);
    }

    #[test]
    fn reordered_replies_fail() {
        let got = replies(&[
            "REJECTED 1",
            "PLACED 0 2",
            "DOWNED 3 evicted=0 repaired=0 shed=0",
            "UPPED 3",
        ]);
        assert_eq!(check_replies(&SENT, &got, 4).failed, 2);
    }

    #[test]
    fn foreign_ids_fail() {
        let got = replies(&[
            "PLACED 7 2",
            "REJECTED 1",
            "DOWNED 2 evicted=0 repaired=0 shed=0",
            "UPPED 3",
        ]);
        assert_eq!(check_replies(&SENT, &got, 4).failed, 2);
    }

    #[test]
    fn out_of_fleet_servers_fail() {
        let got = replies(&["PLACED 0 4", "REJECTED 1"]);
        let v = check_replies(&SENT[..2], &got, 4);
        assert_eq!(v.failed, 1);
        assert!(
            v.problems[0].contains("outside the fleet"),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn errors_malformed_and_extra_replies_fail() {
        let got = replies(&["ERR overloaded queue full", "PLACED 1", "PLACED 2 0"]);
        assert_eq!(check_replies(&SENT[..2], &got, 4).failed, 3);
    }
}
