package main

// Seeded inputs. A workload's seed fixes everything the program receives:
// the job tokens, which jobs share an executable, the executables'
// contents and the stdin contents. The same seed gives the same inputs.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"condorg/internal/gram"
)

const (
	// stagedExecSize is the staged-io executable size: 16 chunks at the
	// agent's default 64 KiB stage chunk size.
	stagedExecSize = 1 << 20
	stagedStdin    = 16 << 10
	// smallExecSize is the one small executable every campaign job
	// shares.
	smallExecSize = 4 << 10
)

// padded returns the bench program followed by tag and filler up to size
// bytes. Jobs that share a tag share the executable's content hash, so
// the sites' executable cache serves them after the first push.
func padded(tag string, size int, filler []byte) []byte {
	out := make([]byte, 0, size)
	out = append(out, gram.Program(progName)...)
	out = append(out, tag...)
	out = append(out, '\n')
	return append(out, filler[:size-len(out)]...)
}

// filler is size bytes of seeded pseudo-random content.
func filler(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// jobInput is one job as the harness submits it.
type jobInput struct {
	owner string
	exec  []byte
	stdin []byte
	token string
}

// jobSource yields the closed-loop workloads' jobs in submission order.
type jobSource interface {
	next() jobInput
}

// campaignJobs: one owner, noop jobs that all share one small executable.
type campaignJobs struct {
	seed int64
	exec []byte
	n    int
}

func newCampaignJobs(seed int64) *campaignJobs {
	rng := rand.New(rand.NewSource(seed))
	return &campaignJobs{seed: seed, exec: padded(fmt.Sprintf("campaign-%d", seed), smallExecSize, filler(rng, smallExecSize))}
}

func (c *campaignJobs) next() jobInput {
	c.n++
	return jobInput{owner: "campaign", exec: c.exec, token: fmt.Sprintf("c%d-%d", c.seed, c.n)}
}

// stagedJobs: one owner; each job carries a 1 MiB executable, shared by a
// seeded half of the jobs and unique for the other half, plus 16 KiB of
// seeded stdin.
type stagedJobs struct {
	seed   int64
	rng    *rand.Rand
	fill   []byte
	shared []byte
	n      int
}

func newStagedJobs(seed int64) *stagedJobs {
	rng := rand.New(rand.NewSource(seed))
	fill := filler(rng, stagedExecSize)
	return &stagedJobs{
		seed:   seed,
		rng:    rng,
		fill:   fill,
		shared: padded(fmt.Sprintf("shared-%d", seed), stagedExecSize, fill),
	}
}

func (s *stagedJobs) next() jobInput {
	s.n++
	exec := s.shared
	if s.rng.Intn(2) == 1 {
		exec = padded(fmt.Sprintf("unique-%d-%d", s.seed, s.n), stagedExecSize, s.fill)
	}
	stdin := make([]byte, stagedStdin)
	s.rng.Read(stdin)
	return jobInput{owner: "staged", exec: exec, stdin: stdin, token: fmt.Sprintf("s%d-%d", s.seed, s.n)}
}

// opKind is an operation the generators time.
type opKind int

const (
	opSubmit opKind = iota
	opQuery
)

// percentile is the nearest-rank q-quantile (0 < q < 1) of xs. It refuses
// (ok=false) unless at least minBeyond samples lie above the chosen rank,
// so a reported tail always rests on several observations.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	// The epsilon keeps q = k/n on rank k despite float rounding.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10
