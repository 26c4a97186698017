package distjob

import (
	"encoding"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
)

// TestRoundTrip pins the one option schema end to end: for every value of
// every enum, every engine spelling and each bool flag, flags -> Config ->
// spec JSON -> Config is the identity, and the spec's own fields survive
// Encode/Decode with the version stamped.
func TestRoundTrip(t *testing.T) {
	var cases [][]string
	enums := []struct {
		flag string
		v    encoding.TextMarshaler
		next func(int) encoding.TextMarshaler
	}{
		{"-init", core.Init(0), func(i int) encoding.TextMarshaler { return core.Init(i) }},
		{"-semiring", semiring.AddOp(0), func(i int) encoding.TextMarshaler { return semiring.AddOp(i) }},
		{"-augment", core.AugmentMode(0), func(i int) encoding.TextMarshaler { return core.AugmentMode(i) }},
		{"-direction", core.Direction(0), func(i int) encoding.TextMarshaler { return core.Direction(i) }},
	}
	for _, e := range enums {
		for i := 0; ; i++ {
			name, err := e.next(i).MarshalText()
			if err != nil {
				if i < 3 {
					t.Fatalf("%s has only %d names", e.flag, i)
				}
				break
			}
			cases = append(cases, []string{e.flag, string(name)})
		}
	}
	for _, eng := range []string{"", core.EngineBFS, core.EngineBFSSingleSource, core.EngineAuto} {
		cases = append(cases, []string{"-engine", eng})
	}
	for _, b := range []string{"-compress", "-no-prune", "-no-permute"} {
		cases = append(cases, []string{b})
	}
	cases = append(cases, []string{"-procs", "9", "-threads", "3", "-seed", "42"})

	for _, args := range cases {
		cfg := core.Config{Procs: 4, Threads: 12, Init: core.InitDynMinDegree, Permute: true, Seed: 1}
		fs := flag.NewFlagSet("mcm", flag.ContinueOnError)
		core.BindFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if len(args) == 2 {
			if got := fs.Lookup(args[0][1:]).Value.String(); got != args[1] {
				t.Fatalf("%v parsed as %q", args, got)
			}
		}
		cfg.FlightDir = "/tmp/f"
		s := &Spec{RMAT: "ssca", Scale: 9, EdgeFactor: 8, Config: cfg,
			Generation: 2, Recover: true, Checkpoint: []byte{1, 2},
			ObsSpans: true, ObsSeries: true}
		blob, err := s.Encode()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want := *s
		want.V = Version
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", args, *got, want)
		}
	}

	// Unknown names fail at the flag parser and at the decoder alike.
	for _, args := range [][]string{
		{"-init", "bogus"}, {"-semiring", "minParent"}, {"-augment", "level-parallel"},
		{"-direction", "default"}, {"-engine", "graft"}, {"-engine", "ss"},
	} {
		var cfg core.Config
		fs := flag.NewFlagSet("mcm", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		core.BindFlags(fs, &cfg)
		if err := fs.Parse(args); err == nil {
			t.Errorf("flags accepted %v", args)
		}
		// Each flag name is its JSON key.
		blob := fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,%q:%q}`, Version, args[0][1:], args[1])
		if _, err := Decode([]byte(blob)); err == nil {
			t.Errorf("decoder accepted %s", blob)
		}
	}
}

// TestDecodeRejects pins the decoder's failure modes: empty blobs, garbage,
// unknown versions and invalid field values.
func TestDecodeRejects(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("accepted empty blob")
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := Decode([]byte(`{"v":99,"rmat":"g500","procs":4}`)); err == nil {
		t.Error("accepted unknown version")
	}
	// Old blobs must fail on their version, not be misread through the
	// current schema: v4 (hand-mirrored solver fields), v5 (which still
	// carried max_restarts) and v6 (which still carried no_overlap and
	// pull_threshold).
	for v, blob := range map[int]string{
		4: `{"v":4,"rmat":"g500","procs":4,"init":"mindegree","no_permute":true,"graft":true}`,
		5: `{"v":5,"rmat":"g500","procs":4,"recover":true,"max_restarts":3}`,
		6: `{"v":6,"rmat":"g500","procs":4,"no_overlap":true,"pull_threshold":0.5}`,
		7: `{"v":7,"rmat":"g500","procs":4,"obs_spans":true,"obs_metrics":true}`,
	} {
		if _, err := Decode([]byte(blob)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("v%d blob: %v", v, err)
		}
	}
	bad := []string{
		fmt.Sprintf(`{"v":%d,"procs":4}`, Version),                                   // no source
		fmt.Sprintf(`{"v":%d,"rmat":"g500","matrix":"road_usa","procs":4}`, Version), // two sources
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":0}`, Version),                     // bad procs
		fmt.Sprintf(`{"v":%d,"rmat":"bogus","procs":4}`, Version),                    // bad class
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"init":"x"}`, Version),          // bad init
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"semiring":"x"}`, Version),      // bad semiring
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"augment":"x"}`, Version),       // bad augment
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"engine":"x"}`, Version),        // bad engine
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"direction":"x"}`, Version),     // bad direction
		fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"watchdog":-1}`, Version),       // negative watchdog
	}
	for _, blob := range bad {
		if _, err := Decode([]byte(blob)); err == nil {
			t.Errorf("accepted %s", blob)
		}
	}
	// A removed engine is an unknown one, not an alias.
	blob := fmt.Sprintf(`{"v":%d,"rmat":"g500","procs":4,"engine":"bfs-graft"}`, Version)
	if _, err := Decode([]byte(blob)); err == nil || !strings.Contains(err.Error(), `unknown engine "bfs-graft"`) {
		t.Errorf("%s: %v", blob, err)
	}
}

// TestBuildMatrix pins that the spec rebuilds the same matrices as direct
// generator calls, including the class-default edge factor.
func TestBuildMatrix(t *testing.T) {
	s := &Spec{RMAT: "g500", Scale: 6, Config: core.Config{Seed: 3, Procs: 1}}
	a, err := s.BuildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := rmat.MustGenerate(rmat.G500, 6, 32, 3)
	if fmt.Sprint(a.ColPtr) != fmt.Sprint(want.ColPtr) || fmt.Sprint(a.RowIdx) != fmt.Sprint(want.RowIdx) {
		t.Fatal("rmat spec diverges from direct generation")
	}

	mtxSrc := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	s = &Spec{MTX: mtxSrc, Config: core.Config{Procs: 1}}
	a, err = s.BuildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if a.NRows != 2 || a.NCols != 2 || a.NNZ() != 2 {
		t.Fatalf("embedded mtx built %dx%d nnz %d", a.NRows, a.NCols, a.NNZ())
	}
	if !strings.Contains(mtxSrc, "MatrixMarket") {
		t.Fatal("unreachable")
	}
}

// TestCoreConfig pins what a process adds to the spec's Config: the
// symmetric checkpoint handler every process needs for the collective
// gathers (a caller's own handler wins), the decoded resume checkpoint, and
// the collector the Obs* fields ask for.
func TestCoreConfig(t *testing.T) {
	s := &Spec{RMAT: "er", Scale: 5, Config: core.Config{Procs: 9, Init: core.InitGreedy, CheckpointEvery: 2}}
	cfg, err := s.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OnCheckpoint == nil || cfg.Resume != nil || cfg.Obs != nil {
		t.Fatalf("plain spec: handler %v, resume %v, obs %v", cfg.OnCheckpoint != nil, cfg.Resume, cfg.Obs)
	}
	if cfg.Procs != 9 || cfg.Init != core.InitGreedy || cfg.CheckpointEvery != 2 {
		t.Fatalf("options not carried: %+v", cfg)
	}

	called := false
	s.OnCheckpoint = func(*core.Checkpoint) { called = true }
	ck := &core.Checkpoint{Phase: 3, Engine: core.EngineBFS, N1: 1, N2: 1, MateR: []int64{0}, MateC: []int64{0}, Cardinality: 1}
	s.Checkpoint = ck.Encode()
	s.ObsSeries = true
	cfg, err = s.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnCheckpoint(nil)
	if !called {
		t.Fatal("caller's checkpoint handler replaced")
	}
	if cfg.Resume == nil || cfg.Resume.Phase != 3 {
		t.Fatalf("resume checkpoint not decoded: %+v", cfg.Resume)
	}
	if cfg.Obs == nil {
		t.Fatal("no collector despite ObsSeries")
	}

	s.Checkpoint = []byte("garbage")
	if _, err := s.coreConfig(); err == nil {
		t.Fatal("corrupt resume checkpoint accepted")
	}
}
