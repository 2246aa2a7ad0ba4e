// Package crowdrank infers a full ranking of n objects from a small,
// budget-constrained number of crowdsourced pairwise comparisons collected
// in a single non-interactive round, implementing the system of Cai, Sun,
// Dong, Zhang, Wang and Wang, "Pairwise Ranking Aggregation by
// Non-interactive Crowdsourcing with Budget Constraints" (ICDCS 2017).
//
// # Workflow
//
// A requester with budget B plans l = B/(w*r) pairwise comparison tasks
// over n objects:
//
//	plan, err := crowdrank.PlanTasksRatio(100, 0.1, seed) // 10% of all pairs
//
// The plan's task graph is fair (every object has the same degree, hence
// the same probability of being forced to the top or bottom of the ranking)
// and maximizes the likelihood that a full ranking is recoverable
// (Theorems 4.1-4.4 of the paper). The tasks are packed into HITs, sent to
// the crowd once, and the collected votes are aggregated:
//
//	result, err := crowdrank.Infer(plan.N, workers, votes)
//
// Infer runs the paper's four-step pipeline: truth discovery (joint
// estimation of worker quality and pairwise truth), preference smoothing
// (relaxing unanimous edges so a full ranking always exists), preference
// propagation (transitive closure with blended direct/indirect evidence),
// and best-ranking search (simulated annealing, or one of the exact
// searchers for small instances).
//
// # Determinism
//
// Inference is deterministic in its seed: WithSeed fixes the smoothing and
// search randomness, and the effective seed — whether given or drawn from
// the clock — is recorded in Result.Seed. Dependent calls that must see the
// same closure, CertifyRanking in particular, should pass
// WithSeed(result.Seed) so they certify the ranking that was actually
// produced rather than a fresh random reconstruction. The same contract
// covers daemon-served rankings: a RankServer builds its closure under one
// configured seed, reported in every rank response, so
// CertifyRanking(..., WithSeed(seed)) certifies rankings served by
// crowdrankd just as it certifies Infer results. That includes rankings
// answered from the daemon's per-generation ranking cache: a cached
// answer is the one a rerun over the same votes would produce, so it
// still certifies with WithSeed(result.Seed).
//
// # Serving
//
// For long-lived deployments, RankServer (and the crowdrankd binary built
// on it) ingests vote batches into a checksummed, segment-rotated
// write-ahead journal — batches are acknowledged only once durable — and
// serves rankings under request deadlines, degrading from exact search
// through SAPS annealing to a greedy floor instead of failing. Periodic
// state snapshots compact the journal so restart recovery is bounded by
// the time since the last snapshot, not by lifetime ingest; after a disk
// write or fsync failure the journal is permanently poisoned and the
// daemon stops acknowledging rather than overstate durability. See
// cmd/crowdrankd and the README's Serving and Operations sections.
//
// The package also exposes the paper's evaluation apparatus: simulated
// crowds with Gaussian/Uniform quality distributions, a synthetic
// PubFig-style image study, the RC / QS / CrowdBT baselines, and Kendall
// tau ranking metrics. See the examples directory and EXPERIMENTS.md.
package crowdrank
