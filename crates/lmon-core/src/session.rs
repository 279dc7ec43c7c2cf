//! Sessions: the binding between FE API calls and daemon groups.
//!
//! §3.2: "We use a session, an abstraction for a group of daemons
//! associated with a job, to provide the binding method. Most FE API
//! procedures ... include a session parameter. ... Internally, the
//! front-end runtime maintains a session resource descriptor table."
//!
//! This module holds a session's name and its lifecycle. The engine mints
//! each id and decides which sessions exist; the front end's descriptor
//! table (`crate::fe`) keeps one record per live session under that id.

/// A session's id, minted by the engine alone: densely from 0, never twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Lifecycle of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created; no job bound yet.
    Created,
    /// The engine is attached to the RM launcher.
    EngineAttached,
    /// The job stopped at the breakpoint; RPDTAB available.
    JobStopped,
    /// Tool daemons spawned, handshake in progress.
    DaemonsSpawned,
    /// Daemons reported ready; session usable.
    Ready,
    /// Detached: job continues, daemons shut down.
    Detached,
    /// Everything torn down by kill.
    Killed,
}

impl SessionState {
    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Created => "Created",
            SessionState::EngineAttached => "EngineAttached",
            SessionState::JobStopped => "JobStopped",
            SessionState::DaemonsSpawned => "DaemonsSpawned",
            SessionState::Ready => "Ready",
            SessionState::Detached => "Detached",
            SessionState::Killed => "Killed",
        }
    }

    /// Legal transitions: one step along the launch path, or from any live
    /// state to an end, `Killed` or `Detached`.
    pub fn can_transition_to(self, next: SessionState) -> bool {
        use SessionState::*;
        let step = matches!(
            (self, next),
            (Created, EngineAttached)
                | (EngineAttached, JobStopped)
                | (JobStopped, DaemonsSpawned)
                | (DaemonsSpawned, Ready)
        );
        step || (next.is_terminal() && !self.is_terminal())
    }

    /// Whether the session has been torn down.
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Detached | SessionState::Killed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SessionState::*;

    const ALL: [SessionState; 7] =
        [Created, EngineAttached, JobStopped, DaemonsSpawned, Ready, Detached, Killed];

    #[test]
    fn happy_path_transitions() {
        let path = [Created, EngineAttached, JobStopped, DaemonsSpawned, Ready, Detached];
        for step in path.windows(2) {
            assert!(step[0].can_transition_to(step[1]), "{:?} -> {:?}", step[0], step[1]);
            assert!(!step[0].is_terminal());
        }
        assert!(Detached.is_terminal());
    }

    #[test]
    fn illegal_transitions_rejected() {
        assert!(!Created.can_transition_to(Ready));
        assert!(!Ready.can_transition_to(Created));
        // Terminal states admit nothing.
        for next in ALL {
            assert!(!Killed.can_transition_to(next), "Killed -> {next:?}");
            assert!(!Detached.can_transition_to(next), "Detached -> {next:?}");
        }
    }

    #[test]
    fn kill_allowed_from_any_live_state() {
        for intermediate in ALL.into_iter().filter(|s| !s.is_terminal()) {
            assert!(
                intermediate.can_transition_to(SessionState::Killed),
                "{intermediate:?} must allow kill"
            );
        }
    }

    /// Every pair of states against the whole table: the four launch steps,
    /// and an end from each live state.
    #[test]
    fn every_transition_follows_the_table() {
        const STEPS: [(SessionState, SessionState); 4] = [
            (Created, EngineAttached),
            (EngineAttached, JobStopped),
            (JobStopped, DaemonsSpawned),
            (DaemonsSpawned, Ready),
        ];
        for from in ALL {
            for next in ALL {
                let legal = STEPS.contains(&(from, next))
                    || (matches!(next, Killed | Detached) && !from.is_terminal());
                assert_eq!(from.can_transition_to(next), legal, "{from:?} -> {next:?}");
            }
        }
    }
}
