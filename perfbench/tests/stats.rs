use ehs_benchmark::stats::{median, quartiles, verdict, wins, Summary, Verdict};

#[test]
fn median_and_quartiles_of_odd_and_even_sets_match_python() {
    // statistics.quantiles([1, 2, 3, 4, 5]) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    // statistics.quantiles([1, 2, 3, 4]) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
    // statistics.quantiles([1, 2]) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let s = Summary::of(&[10.0, 10.0, 10.0]);
    assert_eq!((s.n, s.relative_spread()), (3, 0.0));
}

#[test]
fn a_clear_consistent_gain_is_improved() {
    let parent = [
        100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.0, 101.0, 100.0, 99.0,
    ];
    let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    assert_eq!(wins(&parent, &change, true), 10);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Improved);
    // The same numbers read as times (lower is better) are a regression.
    assert_eq!(verdict(&parent, &change, false, 0.05), Verdict::Regressed);
}

#[test]
fn ties_count_for_neither_side() {
    let parent = [1.0; 10];
    let mut change = [1.0; 10];
    change[0] = 0.5;
    assert_eq!(wins(&parent, &change, false), 1);
    // One win in ten: no gain, and nothing is worse.
    assert_eq!(verdict(&parent, &change, false, 0.0), Verdict::NoChange);
    // Nine wins and a tie: still nine tenths of all pairs.
    let change: Vec<f64> = (0..10).map(|i| if i == 0 { 1.0 } else { 0.5 }).collect();
    assert_eq!(wins(&parent, &change, false), 9);
    assert_eq!(verdict(&parent, &change, false, 0.0), Verdict::Improved);
}

#[test]
fn a_small_move_inside_the_bound_is_no_change() {
    let parent = [100.0, 100.2, 99.8, 100.1, 99.9];
    let change = [99.0, 99.2, 98.8, 99.1, 98.9];
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::NoChange);
    assert_eq!(verdict(&parent, &change, true, 0.005), Verdict::Regressed);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let parent = [80.0, 120.0, 90.0, 110.0, 100.0].repeat(2);
    let change = [95.0, 99.0, 97.0, 101.0, 98.0].repeat(2);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Unresolved);
    // ...unless every change run beats every parent run.
    let change = [121.0, 122.0, 121.5, 123.0, 125.0].repeat(2);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::NoChange);
    let change = [140.0, 141.0, 142.0, 139.0, 140.5].repeat(2);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Improved);
    let change = [121.0, 122.0, 121.5, 123.0, 30.0].repeat(2);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Unresolved);
}

#[test]
fn fewer_than_ten_pairs_claim_no_gain() {
    let parent = [100.0; 9];
    let change = [150.0; 9];
    assert_eq!(wins(&parent, &change, true), 9);
    assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::NoChange);
    assert_eq!(verdict(&parent, &change, false, 0.05), Verdict::Regressed);
}

#[test]
fn no_pairs_are_unresolved() {
    assert_eq!(verdict(&[], &[], true, 0.1), Verdict::Unresolved);
}
