// Fixture: E2 completion-order merge — channel receives in executor code.
fn merge_by_arrival(rx: Receiver<(usize, u64)>) -> Vec<u64> {
    let mut out = Vec::new();
    while let Ok((_, v)) = rx.recv() {
        // the recv on line 4 is a finding: arrival order varies with claims
        out.push(v);
    }
    out
}

fn poll_workers(rx: &Receiver<u64>) -> Option<u64> {
    rx.try_recv().ok() // line 12: finding (try_recv)
}

fn wait_with_deadline(rx: &Receiver<u64>) -> Option<u64> {
    rx.recv_timeout(timeout()).ok() // line 16: finding (recv_timeout)
}

fn build_channel() -> bool {
    let (_tx, _rx) = mpsc::channel::<u64>(); // line 20: finding (mpsc::)
    true
}

fn not_a_receive(results: &mut Vec<Option<u64>>, id: usize, v: u64) {
    // Slot-indexed merge keyed by job id: the blessed pattern, no finding.
    results[id] = Some(v);
}
