<XMark-Q17>{
  for $s in /site return
  for $pl in $s/people return
  for $p in $pl/person return
    if (not(exists $p/homepage)) then <person>{$p/name/text()}</person> else ()
}</XMark-Q17>
