package transport

// ScribbleCheckinScratches overwrites, with v, the gradient array of
// every checkin scratch it can take out of the pool, puts them all back
// and reports how many had served a request before. Anything that kept a
// reference into a released scratch now reads v.
func ScribbleCheckinScratches(v float64) (warm int) {
	var held []*checkinScratch
	for i := 0; i < 64; i++ {
		sc := checkinScratches.Get().(*checkinScratch)
		vals := sc.fr.Values[:cap(sc.fr.Values)]
		if len(vals) > 0 {
			warm++
		}
		for j := range vals {
			vals[j] = v
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		checkinScratches.Put(sc)
	}
	return warm
}
