package mesh

import (
	"strings"
	"testing"
)

// TestValidateLargeMeshes pins the size envelope: everything up to
// 64x64 is a legal geometry, anything beyond is rejected with the
// node count in the message.
func TestValidateLargeMeshes(t *testing.T) {
	for _, dims := range [][2]int{{32, 32}, {64, 64}, {64, 1}, {1, 64}} {
		cfg := DefaultConfig(dims[0], dims[1])
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%dx%d): unexpected error %v", dims[0], dims[1], err)
		}
	}
	cfg := DefaultConfig(65, 64)
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate(65x64): want error, got nil")
	}
	if !strings.Contains(err.Error(), "4160") || !strings.Contains(err.Error(), "64x64") {
		t.Errorf("Validate(65x64): error should name the node count and the limit, got %v", err)
	}
}

// TestValidateShards pins the sharding rules: the count must be
// non-negative, at most the node count, and tile the mesh exactly
// (contention, bounded link buffers, crash scripts and tracing are
// shard-aware — see the equivalence fuzzer). Errors must carry enough
// context to fix the config.
func TestValidateShards(t *testing.T) {
	mod := func(f func(*Config)) Config {
		cfg := DefaultConfig(4, 4)
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want []string // substrings of the error; nil = must pass
	}{
		{"serial", mod(func(c *Config) {}), nil},
		{"one", mod(func(c *Config) { c.Shards = 1 }), nil},
		{"tiles", mod(func(c *Config) { c.Shards = 8 }), nil},
		{"whole mesh", mod(func(c *Config) { c.Shards = 16 }), nil},
		{"negative", mod(func(c *Config) { c.Shards = -2 }),
			[]string{"negative shard count -2"}},
		{"too many", mod(func(c *Config) { c.Shards = 17 }),
			[]string{"17 shards", "16 nodes"}},
		{"non-tiling", mod(func(c *Config) { c.Shards = 3 }),
			[]string{"3 shards", "do not tile", "1 left over", "divisor"}},
		{"contention", mod(func(c *Config) { c.Shards = 4; c.Contention = true }), nil},
		{"link buffers", mod(func(c *Config) {
			c.Shards = 4
			c.Contention = true
			c.Faults.LinkBufFlits = 8
		}), nil},
		{"crashes", mod(func(c *Config) {
			c.Shards = 4
			c.Faults.Crashes = []CrashEvent{{Node: 1, At: 100, Duration: 50}}
		}), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate: want error, got nil")
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("Validate error %q missing %q", err, sub)
				}
			}
		})
	}
}

// TestShardOfBands pins the ownership map: equal contiguous row-major
// bands covering every node, monotone in node ID.
func TestShardOfBands(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.Shards = 4
	counts := make([]int, cfg.ShardCount())
	prev := 0
	for id := 0; id < 16; id++ {
		s := cfg.ShardOf(NodeID(id))
		if s < prev || s >= cfg.ShardCount() {
			t.Fatalf("ShardOf(%d) = %d: bands must be contiguous and in range (prev %d)", id, s, prev)
		}
		prev = s
		counts[s]++
	}
	for s, n := range counts {
		if n != 4 {
			t.Errorf("shard %d owns %d nodes, want 4", s, n)
		}
	}
	if w := cfg.LookaheadWindow(); w != 12 {
		t.Errorf("LookaheadWindow = %d, want 12 (Base 10 + PerHop 2)", w)
	}
	cfg.Contention, cfg.Faults.LinkBufFlits = true, 4
	if w := cfg.LookaheadWindow(); w != 10 {
		t.Errorf("LookaheadWindow with bounded link buffers = %d, want 10 (Base: every send waits for the barrier)", w)
	}
}
