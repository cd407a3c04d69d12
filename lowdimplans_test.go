package dod

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"dod/internal/synth"
)

// TestDefaultLowDimPlansPinned pins what dod.Detect plans and finds on
// seeded 1-D and 2-D inputs with every field but R and K at its default,
// BucketsPerDim included: the SHA-256 of the plan's JSON and of the
// outlier IDs. The default mini-bucket sizing may only change plans from
// d = 3 up; a change that moves one of these lines moves a default
// low-dimensional plan.
func TestDefaultLowDimPlansPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pins hash amd64 float results")
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	want := map[string][2]string{
		"planted1d/n500": {
			"eed2c0a8aaac7e302f7155f8c0ba060b28f81ee60241a052dc21d6a6e8a69f6b",
			"6752038ffcb2a592840f6bc99f69328c8f4b787d367aae672aedfa5e4ca6926f",
		},
		"planted2d/n500": {
			"aec808601d2a1bcd375c39768f563f0c7ce9878f871f116fac42793d7cbdc5f4",
			"6752038ffcb2a592840f6bc99f69328c8f4b787d367aae672aedfa5e4ca6926f",
		},
		"segmentMA/n500": {
			"8e71e71f03f579fdc18c79d4ebbbffefeff68393690cd36aaafdd4219a8917f8",
			"554ca91d935679fad540f9a7bb900263704f8ab9dd834759e061bd55c7773fd2",
		},
		"planted1d/n4000": {
			"3b3cc284c1575dabb159540c95246c2882ea0ee0b6aaec177b54cdbea6456f6a",
			"25343c041b43edbfbc5322995b98e69353fb363f582d3eb1656006d10fe86744",
		},
		"planted2d/n4000": {
			"c4435734b0e0b0f0b6595784e35ede82ad2d15fedf1525f5ee4fec4ed6368a38",
			"6708b9b6e1f44bf6e6710d05fa0355280cadfe5e13da9331750924c2798905e1",
		},
		"segmentMA/n4000": {
			"75e40841bf0017fa93f66fbe02fd41ed7d4876685fcc44a2e013618e609ed806",
			"30b5c8e3f0f66b93b3e5d2801a7bb15d7186f36ed432b72541d3fc0d819d866e",
		},
		"planted1d/n20000": {
			"8f1374bee3ca95c1d15661f098c7ae95fd8714da3108608747a49a38247c1b81",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		},
		"planted2d/n20000": {
			"522a59e5cb91739e06d4f964f09a0e0efda42acfe642415bf6c218c02732a247",
			"a2e9335f3dbf9b1db7a6f30642160ef68d9497737876d139181806222f3d26fa",
		},
		"segmentMA/n20000": {
			"4888a3694e98de696ee38336ee77a00249700fab7c3f20b61fd18364f75711b9",
			"bbf8e473d11527823f91c6b5ab7b5c4878d94c7577dcc7437c9ad9dccfc5ee67",
		},
		"planted1d/n100000": {
			"363686dacf2ba513430b400c610defd848ffc52cf0a0dbe7d47fae5ef242dfb0",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		},
		"planted2d/n100000": {
			"6c47739ab1aaecb63ff9592e5627322b0d99319cbb21f9802eed7c7e64ae9327",
			"6963adb9528f9a7943a8f70d9f22306a72cf52f3759d92f82bf10f8325315080",
		},
		"segmentMA/n100000": {
			"ee4b3cd7a908402396830c207820269d563c6eccf6015fb3ee943202374b3fdc",
			"32141c27e588d91988ac38cb0243aa1c7616e45ed758c7c9fc961c79d83e506e",
		},
	}
	for _, n := range []int{500, 4000, 20000, 100000} {
		for _, c := range []struct {
			name string
			pts  []Point
			r    float64
		}{
			{"planted1d", planted(n, 1), 4},
			{"planted2d", planted(n, 2), 4},
			{"segmentMA", synth.Segment(synth.Massachusetts, n, 1), 5},
		} {
			res, err := Detect(c.pts, Config{R: c.r, K: 4})
			if err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			plan, err := json.Marshal(res.Report.Plan)
			if err != nil {
				t.Fatal(err)
			}
			var ids []byte
			for _, id := range res.OutlierIDs {
				ids = binary.LittleEndian.AppendUint64(ids, id)
			}
			key := fmt.Sprintf("%s/n%d", c.name, n)
			got := [2]string{sum(plan), sum(ids)}
			if got != want[key] {
				t.Errorf("%s: plan %s outliers %s (%d outliers, %d partitions), want %v",
					key, got[0], got[1], len(res.OutlierIDs), len(res.Report.Plan.Partitions), want[key])
			}
		}
	}
}

func planted(n, d int) []Point {
	pts, _ := synth.HighDimPlanted(n, d, 4, 0.02, 1)
	return pts
}
