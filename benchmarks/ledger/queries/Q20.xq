<XMark-Q20>{
  for $s in /site return
  for $pl in $s/people return
  for $p in $pl/person return
    (if ($p/profile/income >= "100000") then <preferred/> else (),
     if ($p/profile/income < "100000" and $p/profile/income >= "30000")
       then <standard/> else (),
     if ($p/profile/income < "30000") then <challenge/> else (),
     if (not(exists $p/profile/income)) then <na/> else ())
}</XMark-Q20>
