package sptemp

import (
	"errors"
	"fmt"
	"time"
)

// AbsTime is the paper's "abstime" primitive class: an absolute timestamp
// with second resolution, stored as seconds since the Unix epoch. Gaea
// timestamps objects (e.g. a Landsat scene acquisition time) with AbsTime.
type AbsTime int64

// AbsTimeOf converts a time.Time to an AbsTime, truncating sub-second
// precision.
func AbsTimeOf(t time.Time) AbsTime { return AbsTime(t.Unix()) }

// Date is a convenience constructor for UTC calendar dates, the granularity
// global-change datasets are usually indexed at.
func Date(year int, month time.Month, day int) AbsTime {
	return AbsTimeOf(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// Time converts back to a time.Time in UTC.
func (a AbsTime) Time() time.Time { return time.Unix(int64(a), 0).UTC() }

// Sub returns the duration a-o.
func (a AbsTime) Sub(o AbsTime) time.Duration { return time.Duration(a-o) * time.Second }

// String renders the timestamp as an RFC 3339 UTC date-time.
func (a AbsTime) String() string { return a.Time().Format(time.RFC3339) }

// Interval is a closed temporal interval [Start, End]. A degenerate
// interval with Start == End represents an instant; intervals with
// Start > End are empty.
type Interval struct {
	Start, End AbsTime
}

// Instant returns the degenerate interval holding exactly t.
func Instant(t AbsTime) Interval { return Interval{Start: t, End: t} }

// EmptyInterval returns the canonical empty interval.
func EmptyInterval() Interval { return Interval{Start: 1, End: 0} }

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.Start > iv.End }

// Intersects reports whether the two intervals share at least one instant.
func (iv Interval) Intersects(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Start <= o.End && o.Start <= iv.End
}

// Intersection returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersection(o Interval) Interval {
	if !iv.Intersects(o) {
		return EmptyInterval()
	}
	out := iv
	if o.Start > out.Start {
		out.Start = o.Start
	}
	if o.End < out.End {
		out.End = o.End
	}
	return out
}

// Equal reports whether the intervals cover the same instants. All empty
// intervals compare equal.
func (iv Interval) Equal(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return iv.IsEmpty() && o.IsEmpty()
	}
	return iv == o
}

// String renders the interval as "[start, end]".
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%s, %s]", iv.Start, iv.End)
}

// CommonInterval implements the common() assertion over temporal extents:
// all intervals must pairwise share the running intersection, as required
// before a process such as P20 may fire.
func CommonInterval(ivs []Interval) (Interval, error) {
	if len(ivs) == 0 {
		return EmptyInterval(), errors.New("sptemp: common() over no temporal extents")
	}
	inter := ivs[0]
	for i, iv := range ivs[1:] {
		if !inter.Intersects(iv) {
			return EmptyInterval(), fmt.Errorf("sptemp: common() failed: interval %d (%s) disjoint from intersection so far (%s)", i+1, iv, inter)
		}
		inter = inter.Intersection(iv)
	}
	return inter, nil
}

// CommonTimestamps is the instant form of common(): it succeeds when all
// timestamps fall within the given tolerance of each other, and returns the
// earliest. Gaea uses a tolerance because "the same time" for satellite
// passes means the same acquisition window, not the same second.
func CommonTimestamps(ts []AbsTime, tol time.Duration) (AbsTime, error) {
	if len(ts) == 0 {
		return 0, errors.New("sptemp: common() over no timestamps")
	}
	min, max := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	if max.Sub(min) > tol {
		return 0, fmt.Errorf("sptemp: common() failed: timestamps span %s exceeding tolerance %s", max.Sub(min), tol)
	}
	return min, nil
}
