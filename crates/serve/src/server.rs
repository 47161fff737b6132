//! The daemon: listener, acceptor, overload shedding, graceful lifecycle.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use lomon_core::analysis::Diagnostic;
use lomon_obs::{Endpoint, MetricsServer, Registry};

use crate::admin;
use crate::conn::handle_connection;
use crate::metrics::ServeMetrics;
use crate::program::Program;

/// Tunables of one [`Server`]. The defaults are production-shaped; tests
/// shrink the timeouts to keep the suites fast.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Stream listener address (`"127.0.0.1:0"` picks a free port).
    pub listen: String,
    /// Admin endpoint address (health, reload, shutdown).
    pub admin: String,
    /// Optional `/metrics` listener address (Prometheus + NDJSON).
    pub metrics: Option<String>,
    /// Refuse rulebooks (initial and reloaded) with analysis warnings.
    pub deny_warnings: bool,
    /// Global in-flight budget: connections over it are shed with an
    /// `{"type": "overload"}` frame and a clean close.
    pub max_streams: usize,
    /// Liveness tick: how often an idle handler wakes to check for
    /// drain/stop/idle-reap conditions.
    pub read_tick: Duration,
    /// Streams silent for this long are reaped.
    pub idle_timeout: Duration,
    /// Clients that do not drain our verdict writes within this window
    /// are abandoned (slow-loris readers).
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_owned(),
            admin: "127.0.0.1:0".to_owned(),
            metrics: None,
            deny_warnings: false,
            max_streams: 256,
            read_tick: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Why [`Server::start`] refused to come up.
#[derive(Debug)]
pub enum StartError {
    /// The initial rulebook did not compile (or tripped `deny_warnings`).
    Compile(Vec<Diagnostic>),
    /// A listener could not be bound.
    Io(io::Error),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Compile(diagnostics) => {
                writeln!(f, "rulebook rejected:")?;
                for d in diagnostics {
                    writeln!(f, "  {}", d.render_text())?;
                }
                Ok(())
            }
            StartError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

/// State shared by the acceptor, the connection handlers and the admin
/// endpoint.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    program: RwLock<Arc<Program>>,
    next_generation: AtomicU64,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) draining: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// The stream listener's bound address, so the admin routes can wake
    /// the acceptor out of `accept()` on shutdown.
    listen_addr: SocketAddr,
}

impl Shared {
    /// The current program snapshot; connections pin it for their lifetime.
    pub(crate) fn current_program(&self) -> Arc<Program> {
        Arc::clone(&self.program.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub(crate) fn generation(&self) -> u64 {
        self.current_program().generation
    }

    /// Compile `text` aside and atomically swap it in for *new* streams.
    /// In-flight streams keep their pinned program untouched either way.
    ///
    /// # Errors
    ///
    /// All compile/lint diagnostics; the serving program is untouched.
    pub(crate) fn reload(&self, text: &str) -> Result<Arc<Program>, Vec<Diagnostic>> {
        let generation = self.next_generation.fetch_add(1, Ordering::SeqCst);
        match Program::compile(text, generation, self.config.deny_warnings) {
            Ok(program) => {
                let program = Arc::new(program);
                *self.program.write().unwrap_or_else(PoisonError::into_inner) =
                    Arc::clone(&program);
                self.metrics.reloads.inc();
                Ok(program)
            }
            Err(diagnostics) => {
                self.metrics.reload_failures.inc();
                Err(diagnostics)
            }
        }
    }

    /// Begin drain-then-exit: stop accepting, finish in-flight streams,
    /// wake the acceptor so `Server::wait` can finish joining.
    pub(crate) fn request_shutdown(&self) {
        self.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.listen_addr);
    }
}

/// A running `lomon serve` daemon. Dropping it performs a full
/// drain-then-exit shutdown.
pub struct Server {
    addr: SocketAddr,
    admin_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    admin: Option<Endpoint>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    warnings: Vec<Diagnostic>,
    // Held for its Drop: the /metrics listener lives exactly as long as
    // the server.
    _metrics_server: Option<MetricsServer>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("admin_addr", &self.admin_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Compile `rulebook` (one property per line, `#` comments) and start
    /// serving it under `config`. Its analysis warnings, unless
    /// `deny_warnings` refused them, are kept in [`Server::warnings`].
    ///
    /// # Errors
    ///
    /// [`StartError::Compile`] with every diagnostic if the rulebook is
    /// rejected; [`StartError::Io`] if a listener cannot be bound.
    pub fn start(config: ServeConfig, rulebook: &str) -> Result<Server, StartError> {
        let program =
            Program::compile(rulebook, 1, config.deny_warnings).map_err(StartError::Compile)?;
        let warnings = program.warnings.clone();
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::register(&registry);
        let metrics_server = match &config.metrics {
            Some(addr) => Some(MetricsServer::bind(addr, Arc::clone(&registry))?),
            None => None,
        };
        let metrics_addr = metrics_server.as_ref().map(MetricsServer::local_addr);
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            config,
            program: RwLock::new(Arc::new(program)),
            next_generation: AtomicU64::new(2),
            metrics,
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            listen_addr: addr,
        });
        let admin = {
            let routed = Arc::clone(&shared);
            Endpoint::bind(&shared.config.admin, admin::IO_TIMEOUT, move |request| {
                admin::route(&routed, request)
            })?
        };
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("lomon-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &handlers))?
        };

        Ok(Server {
            addr,
            admin_addr: admin.local_addr(),
            metrics_addr,
            shared,
            acceptor: Some(acceptor),
            admin: Some(admin),
            handlers,
            warnings,
            _metrics_server: metrics_server,
        })
    }

    /// The stream listener's bound address (port `0` resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin endpoint's bound address.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// The `/metrics` listener's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The rulebook generation new streams are currently served under.
    pub fn generation(&self) -> u64 {
        self.shared.generation()
    }

    /// Properties in the rulebook new streams are currently served under.
    pub fn properties(&self) -> usize {
        self.shared.current_program().engine.len()
    }

    /// The analysis warnings of the rulebook the server started with (a
    /// reload reports its own diagnostics only when it is refused).
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// The daemon's own metric families — live counters, readable at any
    /// time (the chaos suite asserts on them directly).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Hot-reload the rulebook: compile it aside and swap it in for new
    /// streams only; in-flight streams keep the program they pinned, and on
    /// error the serving program is untouched.
    ///
    /// # Errors
    ///
    /// Every compile/lint diagnostic of the rejected rulebook.
    pub fn reload(&self, rulebook: &str) -> Result<u64, Vec<Diagnostic>> {
        self.shared.reload(rulebook).map(|p| p.generation)
    }

    /// Begin drain-then-exit without blocking: new connections are
    /// refused, in-flight streams flush their final reports and close.
    pub fn begin_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until the server has fully shut down (drain requested via
    /// [`Server::begin_shutdown`] or the admin `POST /shutdown`), joining
    /// every thread.
    pub fn wait(&mut self) {
        while !self.shared.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    /// Drain and shut down, blocking until every stream has flushed.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Dropping the admin endpoint wakes and joins its thread.
        drop(self.admin.take());
        let handles: Vec<_> = self
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections until stopped, shedding at the in-flight budget.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        shared.metrics.connections.inc();
        if shared.draining.load(Ordering::Acquire) {
            let _ = refuse(&stream, "{\"type\": \"draining\"}\n");
            continue;
        }
        // Overload shedding: over budget, the client gets an explicit
        // load-shed frame and a clean close — not an unbounded queue.
        let admitted = shared
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < shared.config.max_streams).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            shared.metrics.overloads.inc();
            let _ = refuse(
                &stream,
                "{\"type\": \"overload\", \"reason\": \"server at capacity\"}\n",
            );
            continue;
        }
        set_active_gauge(shared);
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("lomon-serve-conn".to_owned())
                .spawn(move || {
                    handle_connection(&shared, &stream);
                    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                    set_active_gauge(&shared);
                })
        };
        match handle {
            Ok(handle) => {
                let mut handlers = handlers.lock().unwrap_or_else(PoisonError::into_inner);
                handlers.retain(|h| !h.is_finished());
                handlers.push(handle);
            }
            Err(_) => {
                // Could not spawn: shed as overload.
                shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                set_active_gauge(shared);
                shared.metrics.overloads.inc();
            }
        }
    }
}

fn set_active_gauge(shared: &Shared) {
    #[allow(clippy::cast_precision_loss)]
    shared
        .metrics
        .active_streams
        .set(shared.in_flight.load(Ordering::Acquire) as f64);
}

/// Best-effort one-frame refusal with a short write timeout, so a shed
/// client cannot hold the acceptor hostage.
fn refuse(stream: &TcpStream, frame: &str) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    let mut stream = stream.try_clone()?;
    stream.write_all(frame.as_bytes())
}
