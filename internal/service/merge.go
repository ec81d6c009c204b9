package service

import (
	"fmt"
	"sort"

	"raidrel/internal/campaign"
	"raidrel/internal/sim"
)

// ShardResult is one completed shard of a sharded campaign, as described
// by its manifest entry: which slice it is, the iteration range it ran,
// the base (unsharded) config fingerprint it belongs to, and the sparse
// result it produced.
type ShardResult struct {
	// Index/Count designate the shard.
	Index, Count int
	// Offset and Iterations are the stream range [Offset, Offset+Iterations)
	// the shard simulated.
	Offset, Iterations int
	// Fingerprint is the unsharded campaign's config fingerprint; all
	// shards of one campaign share it.
	Fingerprint string
	// Run is the shard's result, with group indices local to the shard.
	Run *sim.SparseResult
}

// MergeShards combines k shard results into the exact result of the
// unsharded campaign. Because stream index Offset+i always drives
// iteration Offset+i regardless of process, worker count, or batching,
// concatenating the shard results in offset order is bit-identical to a
// single run over the full range — no statistical merging, an equality.
//
// The manifest is fully validated first: every shard present exactly once,
// all from the same campaign (equal fingerprints and counts), ranges
// contiguous from offset 0, and each result sized to its declared range. A
// gap, overlap, or foreign shard yields an error, never a silently wrong
// merge.
func MergeShards(shards []ShardResult) (*sim.SparseResult, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("service: merge: no shards")
	}
	n := shards[0].Count
	fp := shards[0].Fingerprint
	if len(shards) != n {
		return nil, fmt.Errorf("service: merge: %d shards of a %d-shard campaign", len(shards), n)
	}
	ordered := make([]ShardResult, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Index < ordered[b].Index })

	next := 0
	for i, sh := range ordered {
		if sh.Count != n {
			return nil, fmt.Errorf("service: merge: shard %d declares %d-way sharding, others %d-way", sh.Index, sh.Count, n)
		}
		if sh.Fingerprint != fp {
			return nil, fmt.Errorf("service: merge: shard %d fingerprint %s does not match %s (different campaign)", sh.Index, sh.Fingerprint, fp)
		}
		if sh.Index != i {
			return nil, fmt.Errorf("service: merge: shard %d missing or duplicated", i)
		}
		if sh.Offset != next {
			return nil, fmt.Errorf("service: merge: shard %d starts at offset %d, want %d (gap or overlap)", sh.Index, sh.Offset, next)
		}
		if sh.Run == nil || sh.Run.Groups != sh.Iterations {
			got := 0
			if sh.Run != nil {
				got = sh.Run.Groups
			}
			return nil, fmt.Errorf("service: merge: shard %d holds %d iterations, manifest says %d", sh.Index, got, sh.Iterations)
		}
		// Variance-reduced shards must agree on the VR block layout and sit
		// on block boundaries, or the concatenated block tallies would not
		// be the single-run tallies. (Mis-sized trailing blocks are legal
		// only on the final shard, where the campaign itself clips.)
		if vr0 := ordered[0].Run.VR; (vr0 != nil) != (sh.Run.VR != nil) {
			return nil, fmt.Errorf("service: merge: shard %d mixes variance-reduced and plain results", sh.Index)
		} else if vr := sh.Run.VR; vr != nil {
			if vr.BlockSize != vr0.BlockSize {
				return nil, fmt.Errorf("service: merge: shard %d uses VR block size %d, others %d", sh.Index, vr.BlockSize, vr0.BlockSize)
			}
			if vr.BlockSize <= 0 || sh.Offset%vr.BlockSize != 0 {
				return nil, fmt.Errorf("service: merge: shard %d starts at offset %d, not a multiple of its VR block size %d", sh.Index, sh.Offset, vr.BlockSize)
			}
			if vr.Iterations() != sh.Run.Groups {
				return nil, fmt.Errorf("service: merge: shard %d VR blocks cover %d of %d iterations", sh.Index, vr.Iterations(), sh.Run.Groups)
			}
		}
		next += sh.Iterations
	}

	merged := &sim.SparseResult{}
	for _, sh := range ordered {
		merged.Merge(sh.Run)
	}
	return merged, nil
}

// MergeJobs merges completed shard jobs into the unsharded campaign's
// result and registers it as a synthetic done job cached under the
// unsharded spec's key — so a later submission of the whole campaign is a
// cache hit served without simulating. Merging the same shards again
// returns the existing merged job (the merge itself is memoized).
func (s *Server) MergeJobs(ids []string) (*Job, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("service: merge: no job ids")
	}
	shards := make([]ShardResult, 0, len(ids))
	var base JobSpec
	var whole campaign.Spec
	for i, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			return nil, fmt.Errorf("service: merge: unknown job %s", id)
		}
		if st := j.State(); st != JobDone {
			return nil, fmt.Errorf("service: merge: job %s is %s, want %s", id, st, JobDone)
		}
		if j.Spec.Shard == nil {
			return nil, fmt.Errorf("service: merge: job %s is not a shard", id)
		}
		// Each shard carries the fingerprint of its job's unsharded
		// campaign: the lowered shard spec over the whole iteration range.
		// Mixed configs therefore fail MergeShards' equality check even
		// before range validation.
		unsharded := j.lowered
		unsharded.Offset, unsharded.MaxIterations = 0, j.Spec.Iterations
		if i == 0 {
			base, whole = j.Spec.unsharded(), unsharded
		}
		res, _ := j.Result()
		start, end := j.Spec.Shard.Range(j.Spec.Iterations)
		shards = append(shards, ShardResult{
			Index:       j.Spec.Shard.Index,
			Count:       j.Spec.Shard.Count,
			Offset:      start,
			Iterations:  end - start,
			Fingerprint: unsharded.Fingerprint(),
			Run:         res.Run,
		})
	}

	merged, err := MergeShards(shards)
	if err != nil {
		return nil, err
	}
	now := s.opts.now()
	fp := shards[0].Fingerprint
	j := newJob(base, whole, fp, base.cacheKey(fp), now)
	j.Merged = true
	j.started = now
	j.finish(JobDone, campaign.Summarize(whole, merged), nil, now)

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.cache[j.CacheKey]; ok && existing.State() == JobDone {
		s.hits.Add(1)
		return existing, nil
	}
	s.track(j)
	s.merges.Add(1)
	return j, nil
}
