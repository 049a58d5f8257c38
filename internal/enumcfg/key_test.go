package enumcfg

import "testing"

// TestKeyCanonicalization is the cache-correctness linchpin: configs
// that provably produce the same clique stream must collapse to one
// key, and configs that can differ must not.
func TestKeyCanonicalization(t *testing.T) {
	tests := []struct {
		name string
		a, b Config
		same bool
	}{
		{
			name: "zero value equals explicit defaults",
			a:    Config{},
			b:    Config{Lo: 2, Hi: 0, Workers: 1},
			same: true,
		},
		{
			name: "worker count is execution policy, not identity",
			a:    Config{Lo: 3},
			b:    Config{Lo: 3, Workers: 8},
			same: true,
		},
		{
			name: "dispatch strategy is execution policy on the streaming pool",
			a:    Config{Lo: 3, Workers: 4, Strategy: Contiguous},
			b:    Config{Lo: 3, Workers: 4, Strategy: Affinity},
			same: true,
		},
		{
			name: "memory budget and spill directory do not change the stream",
			a:    Config{Lo: 3},
			b:    Config{Lo: 3, MemoryBudget: 1 << 20, Dir: "/tmp/x"},
			same: true,
		},
		{
			name: "lower bound is identity",
			a:    Config{Lo: 3},
			b:    Config{Lo: 4},
			same: false,
		},
		{
			name: "default lower bound differs from 3",
			a:    Config{},
			b:    Config{Lo: 3},
			same: false,
		},
		{
			name: "upper bound is identity",
			a:    Config{Lo: 3},
			b:    Config{Lo: 3, Hi: 5},
			same: false,
		},
		{
			name: "ReportSmall is identity",
			a:    Config{Lo: 1},
			b:    Config{Lo: 1, ReportSmall: true},
			same: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ka, kb := tt.a.Key(), tt.b.Key()
			if (ka == kb) != tt.same {
				t.Errorf("Key(%+v) = %q, Key(%+v) = %q; want same=%v",
					tt.a, ka, tt.b, kb, tt.same)
			}
		})
	}
}

// TestKeyStableAcrossNormalize: normalizing must never change a valid
// config's key — the service normalizes before running but may key the
// cache either side of it.
func TestKeyStableAcrossNormalize(t *testing.T) {
	cfgs := []Config{
		{},
		{Lo: 3, Hi: 9, Workers: 4, Strategy: Affinity},
		{Lo: 1, ReportSmall: true},
	}
	for _, c := range cfgs {
		before := c.Key()
		if err := c.Normalize(); err != nil {
			t.Fatalf("Normalize(%+v): %v", c, err)
		}
		if after := c.Key(); after != before {
			t.Errorf("key changed across Normalize: %q -> %q", before, after)
		}
	}
}
