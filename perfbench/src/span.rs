//! Wall-clock spans around the benchmark's own calls into the platform,
//! kept in memory and written out when the run ends.

use dlaas_obs::wallclock::WallTimer;

pub struct WallSpan {
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Spans {
    origin: WallTimer,
    pub wall: Vec<WallSpan>,
}

impl Spans {
    pub fn new(origin: WallTimer) -> Spans {
        Spans {
            origin,
            wall: Vec::new(),
        }
    }

    /// Microseconds since the origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed_secs() * 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn wall(&mut self, name: &str, f: &mut dyn FnMut()) {
        let start_us = self.now_us();
        f();
        let dur_us = self.now_us() - start_us;
        self.wall.push(WallSpan {
            name: name.to_owned(),
            start_us,
            dur_us,
        });
    }
}
