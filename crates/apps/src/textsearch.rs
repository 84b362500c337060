//! A real text-search server with a lottery-scheduled query queue.
//!
//! The paper's client-server experiment runs case-insensitive substring
//! searches over the complete text of Shakespeare's plays (4.6 MB). The
//! simulator reproduces its *scheduling* behaviour
//! ([`crate::dbserver`]); this module reproduces the *computation* on real
//! threads: a deterministic pseudo-prose corpus, an honest
//! case-insensitive substring counter, and a server whose next query is
//! chosen **by lottery over client tickets** — the same proportional-share
//! queueing the paper applies to every contended resource.
//!
//! (The paper's own search string was "lottery", which "incidentally
//! occurs a total of 8 times in Shakespeare's plays".)

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use lottery_core::errors::{LotteryError, Result};
use lottery_core::lottery;
use lottery_core::rng::{ParkMiller, SplitMix64};
use lottery_sync::primitives::{Condvar, Mutex};

/// Deterministically generates `words` words of pseudo-prose.
///
/// The vocabulary skews toward common English words with occasional rare
/// tokens, so substring queries have realistic, non-uniform hit counts.
pub fn generate_corpus(words: usize, seed: u64) -> String {
    const COMMON: &[&str] = &[
        "the", "and", "to", "of", "a", "in", "that", "is", "was", "he", "for", "it", "with", "as",
        "his", "on", "be", "at", "by", "had", "not", "are", "but", "from", "or", "have", "an",
        "they", "which", "one", "you", "were", "her", "all", "she", "there", "would", "their",
        "we", "him", "been", "has", "when", "who", "will", "more", "no", "if", "out", "king",
        "queen", "crown", "sword", "night", "day", "love", "death", "honor", "grace",
    ];
    const RARE: &[&str] = &["lottery", "currency", "ticket", "quantum", "inverse"];
    let mut rng = SplitMix64::new(seed);
    let mut out = String::with_capacity(words * 6);
    for i in 0..words {
        if i > 0 {
            // Sentence and line structure, so the text resembles prose.
            if i % 12 == 0 {
                out.push('.');
            }
            if i % 17 == 0 {
                out.push('\n');
            } else {
                out.push(' ');
            }
        }
        let word = if rng.next_u64().is_multiple_of(997) {
            RARE[(rng.next_u64() % RARE.len() as u64) as usize]
        } else {
            COMMON[(rng.next_u64() % COMMON.len() as u64) as usize]
        };
        // Occasionally capitalize, so case-insensitivity matters.
        if rng.next_u64().is_multiple_of(13) {
            let mut chars = word.chars();
            if let Some(first) = chars.next() {
                out.extend(first.to_uppercase());
                out.push_str(chars.as_str());
            }
        } else {
            out.push_str(word);
        }
    }
    out
}

/// Counts case-insensitive (ASCII) occurrences of `needle` in `haystack`,
/// including overlapping ones — the query operation of Section 5.3.
pub fn count_case_insensitive(haystack: &str, needle: &str) -> usize {
    if needle.is_empty() || needle.len() > haystack.len() {
        return 0;
    }
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    let mut count = 0;
    for window in h.windows(n.len()) {
        if window.iter().zip(n).all(|(a, b)| a.eq_ignore_ascii_case(b)) {
            count += 1;
        }
    }
    count
}

/// A query awaiting service.
#[derive(Debug, Clone)]
struct Query {
    client: usize,
    needle: String,
}

#[derive(Debug)]
struct QueueInner {
    /// Per-client FIFO of pending queries.
    pending: Vec<VecDeque<Query>>,
    tickets: Vec<u64>,
    rng: ParkMiller,
    closed: bool,
    in_flight: usize,
}

/// A multi-client query queue whose dequeue order is a ticket lottery.
#[derive(Debug)]
pub struct LotteryQueryQueue {
    inner: Mutex<QueueInner>,
    available: Condvar,
}

impl LotteryQueryQueue {
    /// Creates a queue for clients holding the given tickets.
    pub fn new(tickets: Vec<u64>, seed: u32) -> Self {
        let pending = tickets.iter().map(|_| VecDeque::new()).collect();
        Self {
            inner: Mutex::new(QueueInner {
                pending,
                tickets,
                rng: ParkMiller::new(seed),
                closed: false,
                in_flight: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Submits a query for `client`.
    ///
    /// # Errors
    ///
    /// [`LotteryError::StaleHandle`] never occurs here; an out-of-range
    /// client index yields [`LotteryError::EmptyLottery`].
    pub fn submit(&self, client: usize, needle: impl Into<String>) -> Result<()> {
        let mut inner = self.inner.lock();
        if client >= inner.pending.len() {
            return Err(LotteryError::EmptyLottery);
        }
        inner.pending[client].push_back(Query {
            client,
            needle: needle.into(),
        });
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Marks the queue closed: workers drain what is left, then stop.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }

    /// Takes the next query by lottery, blocking until one is available;
    /// `None` once the queue is closed and drained.
    fn take(&self) -> Option<Query> {
        let mut guard = self.inner.lock();
        loop {
            let inner = &mut *guard;
            // Hold the lottery among clients with pending queries. A
            // ticket total past the draw's range serves the first of them.
            let mut backlogged =
                inner
                    .pending
                    .iter()
                    .zip(&inner.tickets)
                    .map(|(q, &t)| if q.is_empty() { 0 } else { t });
            let winner = match lottery::draw(backlogged.clone(), &mut inner.rng) {
                Ok((i, ..)) => Some(i),
                Err(_) => backlogged.position(|t| t > 0),
            };
            if let Some(query) = winner.and_then(|i| inner.pending[i].pop_front()) {
                inner.in_flight += 1;
                return Some(query);
            }
            if inner.closed {
                return None;
            }
            self.available.wait(&mut guard);
        }
    }

    fn finish_one(&self) {
        self.inner.lock().in_flight -= 1;
    }

    /// Pending queries across all clients (excluding in-flight ones).
    pub fn backlog(&self) -> usize {
        self.inner.lock().pending.iter().map(VecDeque::len).sum()
    }
}

/// A completed query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// The submitting client's index.
    pub client: usize,
    /// The query string.
    pub needle: String,
    /// Occurrences found.
    pub matches: usize,
}

/// A running search server: worker threads draining a lottery queue over
/// a shared corpus.
pub struct SearchServer {
    queue: Arc<LotteryQueryQueue>,
    workers: Vec<JoinHandle<u64>>,
    results: Receiver<SearchResult>,
}

impl SearchServer {
    /// Starts `workers` threads over `corpus`, serving clients with the
    /// given ticket allocation.
    pub fn start(corpus: Arc<String>, tickets: Vec<u64>, workers: usize, seed: u32) -> Self {
        let queue = Arc::new(LotteryQueryQueue::new(tickets, seed));
        let (tx, rx): (Sender<SearchResult>, Receiver<SearchResult>) = channel();
        let handles = (0..workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let corpus = Arc::clone(&corpus);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    while let Some(query) = queue.take() {
                        let matches = count_case_insensitive(&corpus, &query.needle);
                        queue.finish_one();
                        served += 1;
                        // The receiver may already be gone during shutdown.
                        let _ = tx.send(SearchResult {
                            client: query.client,
                            needle: query.needle,
                            matches,
                        });
                    }
                    served
                })
            })
            .collect();
        Self {
            queue,
            workers: handles,
            results: rx,
        }
    }

    /// The shared queue, for submitting queries.
    pub fn queue(&self) -> &Arc<LotteryQueryQueue> {
        &self.queue
    }

    /// Receives completed results until the server drains.
    pub fn results(&self) -> &Receiver<SearchResult> {
        &self.results
    }

    /// Closes the queue and joins the workers, returning per-worker
    /// service counts.
    pub fn shutdown(self) -> Vec<u64> {
        self.queue.close();
        self.workers
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let a = generate_corpus(10_000, 42);
        let b = generate_corpus(10_000, 42);
        assert_eq!(a, b);
        let c = generate_corpus(10_000, 43);
        assert_ne!(a, c);
        // Roughly 4-6 bytes per word.
        assert!(a.len() > 30_000 && a.len() < 80_000, "{}", a.len());
    }

    #[test]
    fn counting_is_case_insensitive_and_overlapping() {
        assert_eq!(count_case_insensitive("The THE the", "the"), 3);
        assert_eq!(count_case_insensitive("aaaa", "aa"), 3, "overlaps count");
        assert_eq!(count_case_insensitive("abc", ""), 0);
        assert_eq!(count_case_insensitive("ab", "abc"), 0);
        assert_eq!(count_case_insensitive("Lottery scheduling", "LOTTERY"), 1);
    }

    #[test]
    fn rare_words_occur_rarely() {
        let corpus = generate_corpus(200_000, 7);
        let rare = count_case_insensitive(&corpus, "lottery");
        let common = count_case_insensitive(&corpus, "the");
        assert!(rare > 0, "the rare word should appear");
        assert!(rare < 200, "but rarely: {rare}");
        assert!(common > 1_000, "common words dominate: {common}");
    }

    #[test]
    fn single_worker_service_order_follows_tickets() {
        // Pre-queue 200 queries per client with a 3:1 allocation; a
        // single worker's service order is then a pure seeded lottery.
        let corpus = Arc::new(generate_corpus(5_000, 1));
        let queue = LotteryQueryQueue::new(vec![300, 100], 9);
        for _ in 0..200 {
            queue.submit(0, "king").unwrap();
            queue.submit(1, "queen").unwrap();
        }
        let mut served = [0u32; 2];
        for _ in 0..100 {
            let q = queue.take().unwrap();
            let _ = count_case_insensitive(&corpus, &q.needle);
            queue.finish_one();
            served[q.client] += 1;
        }
        // E[served0] = 75, binomial stddev ≈ 4.3; allow 4 sigma.
        assert!(
            (58..=92).contains(&served[0]),
            "3:1 tickets served {served:?}"
        );
    }

    #[test]
    fn threaded_server_round_trip() {
        let corpus = Arc::new(generate_corpus(20_000, 5));
        let server = SearchServer::start(Arc::clone(&corpus), vec![100, 100], 2, 3);
        for i in 0..10 {
            let client = i % 2;
            server.queue().submit(client, "the").unwrap();
        }
        let mut results = Vec::new();
        for _ in 0..10 {
            results.push(server.results().recv().expect("result"));
        }
        let served: Vec<u64> = server.shutdown();
        assert_eq!(served.iter().sum::<u64>(), 10);
        let expected = count_case_insensitive(&corpus, "the");
        for r in results {
            assert_eq!(r.matches, expected);
            assert_eq!(r.needle, "the");
        }
    }

    #[test]
    fn submit_to_unknown_client_fails() {
        let queue = LotteryQueryQueue::new(vec![1], 1);
        assert!(queue.submit(5, "x").is_err());
    }

    #[test]
    fn closed_empty_queue_returns_none() {
        let queue = LotteryQueryQueue::new(vec![1], 1);
        queue.close();
        assert!(queue.take().is_none());
    }

    #[test]
    fn backlog_counts_pending() {
        let queue = LotteryQueryQueue::new(vec![1, 1], 1);
        queue.submit(0, "a").unwrap();
        queue.submit(1, "b").unwrap();
        assert_eq!(queue.backlog(), 2);
        let _ = queue.take().unwrap();
        assert_eq!(queue.backlog(), 1);
    }
}
