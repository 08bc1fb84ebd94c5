package muddy

import "testing"

// TestTrackCommonAfterPublicAnnouncement pins the paper's observation that
// the father's public announcement creates common knowledge of m, and that
// the round announcements — which only remove worlds — never destroy it.
func TestTrackCommonAfterPublicAnnouncement(t *testing.T) {
	res, err := SimulateOpts(6, []int{0, 1, 2}, PublicAnnouncement, 8,
		SimOptions{TrackCommon: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommonM) != len(res.Rounds) {
		t.Fatalf("CommonM has %d entries for %d rounds", len(res.CommonM), len(res.Rounds))
	}
	for i, cm := range res.CommonM {
		if !cm {
			t.Errorf("round %d: C m lost after the public announcement", i+1)
		}
	}
}
