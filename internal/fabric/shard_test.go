package fabric

import "testing"

func TestPlanShardsCoversRangeAligned(t *testing.T) {
	cases := []struct {
		trials, shardTrials int
	}{
		{0, 64}, {1, 64}, {64, 64}, {65, 64}, {256, 64}, {256, 100},
		{1000, 128}, {1000, 0}, {4096, 512}, {63, 256},
	}
	for _, c := range cases {
		shards := PlanShards(c.trials, c.shardTrials)
		next := 0
		for i, sh := range shards {
			if sh.Offset != next {
				t.Fatalf("PlanShards(%d,%d): shard %d starts at %d, want %d",
					c.trials, c.shardTrials, i, sh.Offset, next)
			}
			if sh.Trials <= 0 {
				t.Fatalf("PlanShards(%d,%d): shard %d has %d trials", c.trials, c.shardTrials, i, sh.Trials)
			}
			if i < len(shards)-1 && sh.Trials%64 != 0 {
				t.Fatalf("PlanShards(%d,%d): non-final shard %d has unaligned size %d",
					c.trials, c.shardTrials, i, sh.Trials)
			}
			next += sh.Trials
		}
		if next != c.trials {
			t.Fatalf("PlanShards(%d,%d): covers %d trials", c.trials, c.shardTrials, next)
		}
	}
}

func TestPlanShardsRoundsRequestUp(t *testing.T) {
	// A 100-trial request rounds up to 128, so 256 trials split 2×128.
	shards := PlanShards(256, 100)
	if len(shards) != 2 || shards[0].Trials != 128 || shards[1].Trials != 128 {
		t.Fatalf("PlanShards(256,100) = %+v, want two 128-trial shards", shards)
	}
}

func TestAutoShardTrials(t *testing.T) {
	if got := AutoShardTrials(4096, 4); got != 256 {
		t.Fatalf("AutoShardTrials(4096,4) = %d, want 256", got)
	}
	if got := AutoShardTrials(100, 3); got != 64 {
		t.Fatalf("AutoShardTrials(100,3) = %d, want the 64 floor", got)
	}
	if got := AutoShardTrials(1000, 0); got%64 != 0 || got <= 0 {
		t.Fatalf("AutoShardTrials(1000,0) = %d, want a positive multiple of 64", got)
	}
	// About four shards per peer: 3 peers over 10000 trials → 12-ish shards.
	size := AutoShardTrials(10000, 3)
	if n := len(PlanShards(10000, size)); n < 10 || n > 14 {
		t.Fatalf("AutoShardTrials(10000,3)=%d yields %d shards, want ~12", size, n)
	}
}

// TestShardRequestToSpecChecksMesh: a worker refuses a shard whose mesh
// the algorithm cannot run instead of panicking while building its
// schedule, and a shard whose trial range leaves mcbatch.MaxTrialIndex.
func TestShardRequestToSpecChecksMesh(t *testing.T) {
	for _, req := range []ShardRequest{
		{Algorithm: "rm-rf", Rows: 15, Cols: 15, Trials: 64},
		{Algorithm: "rm-cf", Rows: 8, Cols: 7, Trials: 64},
		{Algorithm: "snake-a", Rows: 0, Cols: 8, Trials: 64},
		{Algorithm: "snake-a", Rows: 8, Cols: 8, Trials: 64, TrialOffset: 1<<32 - 63}, // past mcbatch.MaxTrialIndex
	} {
		if _, err := req.ToSpec(); err == nil {
			t.Errorf("%+v: accepted", req)
		}
	}
	if _, err := (ShardRequest{Algorithm: "snake-a", Rows: 15, Cols: 15, Trials: 64}).ToSpec(); err != nil {
		t.Errorf("snake-a 15x15: %v", err)
	}
}
